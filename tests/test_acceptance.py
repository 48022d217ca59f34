"""Acceptance gate: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (a summary block is also printed at the end of any run that
includes this module). Tolerances are pinned here and nowhere else.
"""

import dataclasses
import math
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbplan.cli import main
from mbplan.costing import CostModel, compare, cost
from mbplan.dimensioning import ArchitectureKind, Mode, PtmpCountMode, dimension
from mbplan.scenario import HierarchyLevel, generate_topology
from mbplan.spectrum import (
    assign_spectrum,
    band_width_thz,
    channel_count,
    feasibility_report,
    total_channels,
    width_thz,
)
from oracles import continuum_oracle, grooming_oracle, ptmp_formula_oracle, ptmp_worked_oracle
from strategies import assignment_cases, divisible_scenarios, scenarios, small_scenarios

ROOT = Path(__file__).resolve().parent.parent
HL4, HL3, HL12 = HierarchyLevel.HL4, HierarchyLevel.HL3, HierarchyLevel.HL12

PROPERTY_CASES = 200  # minimum randomized cases per property suite


def per_level(result):
    return (result.per_level[HL4], result.per_level[HL3], result.per_level[HL12])


# -- criterion 1: grooming worked example -------------------------------------

def test_c01_grooming_worked_example(benchmark_scenario):
    result = dimension(benchmark_scenario, ArchitectureKind.GROOMING)
    assert per_level(result) == (200, 280, 80)
    assert result.total == 560


# -- criterion 2: continuum worked example -------------------------------------

def test_c02_continuum_worked_example(benchmark_scenario):
    result = dimension(benchmark_scenario, ArchitectureKind.CONTINUUM)
    assert per_level(result) == (200, 0, 200)
    assert result.total == 400


# -- criterion 3: ptmp worked example ------------------------------------------

def test_c03_ptmp_worked_example(benchmark_scenario, benchmark_topology):
    assert benchmark_scenario.fanout_m == 4
    result = dimension(
        benchmark_scenario, ArchitectureKind.PTMP,
        ptmp_count_mode=PtmpCountMode.WORKED_EXAMPLE, topology=benchmark_topology
    )
    assert per_level(result) == (200, 0, 150)
    assert result.total == 350


# -- criterion 4: transponder savings ------------------------------------------

def test_c04_transponder_savings(benchmark_scenario):
    grooming = dimension(benchmark_scenario, ArchitectureKind.GROOMING)
    continuum = dimension(benchmark_scenario, ArchitectureKind.CONTINUUM)
    report = compare(
        {ArchitectureKind.GROOMING: grooming, ArchitectureKind.CONTINUUM: continuum},
        CostModel(),
        benchmark_scenario,
    )
    savings = report.savings_between(ArchitectureKind.GROOMING, ArchitectureKind.CONTINUUM)
    assert abs(savings.transponder_savings_pct - 28.57) <= 0.1


# -- criterion 5: CAPEX figures and the discrepancy footnote --------------------

def test_c05_capex_and_discrepancy_footnote(benchmark_scenario, capsys):
    model = CostModel()
    continuum = cost(dimension(benchmark_scenario, ArchitectureKind.CONTINUUM), model, benchmark_scenario)
    assert continuum.total_cu == 4800.0
    grooming = cost(dimension(benchmark_scenario, ArchitectureKind.GROOMING), model, benchmark_scenario)
    assert grooming.total_cu == 9280.0
    assert main(["compare", str(ROOT / "data" / "large_man.json")]) == 0
    out = capsys.readouterr().out
    assert "9280.00" in out
    assert "7728" in out  # footnote flagging the non-reproducible reference figure


# -- criterion 6: spectrum widths -----------------------------------------------

def test_c06_spectrum_widths(default_plan):
    span = width_thz(1260.0, 1625.0)
    assert abs(span - 53.4) <= 0.1
    c_band = default_plan.band("C")
    assert span / band_width_thz(c_band) > 12


# -- criterion 7: declared channel counts ---------------------------------------

def test_c07_declared_channel_counts(default_plan):
    assert channel_count(default_plan, "C") == 80
    assert total_channels(default_plan) == 900


# -- criterion 8: property suites (>= 200 randomized cases each) ----------------

@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(scenarios())
def test_c08_total_identity(s):
    topo = generate_topology(s)
    for result in (
        dimension(s, ArchitectureKind.GROOMING),
        dimension(s, ArchitectureKind.CONTINUUM),
        dimension(s, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA),
        dimension(s, ArchitectureKind.PTMP, topology=topo),
    ):
        assert result.total == sum(result.per_level.values())


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(scenarios(max_h4=24), st.integers(0, 600), st.integers(0, 10), st.floats(0, 1, allow_nan=False))
def test_c08_monotonicity(s, da4, dh4, eta2):
    def totals(sc):
        topo = generate_topology(sc)
        return (
            dimension(sc, ArchitectureKind.GROOMING).total,
            dimension(sc, ArchitectureKind.CONTINUUM).total,
            dimension(sc, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA).total,
            dimension(sc, ArchitectureKind.PTMP, topology=topo).total,
        )

    base = totals(s)
    more_traffic = totals(dataclasses.replace(s, a4_gbps=s.a4_gbps + da4))
    more_nodes = totals(dataclasses.replace(s, h4=s.h4 + dh4))
    assert all(after >= before for before, after in zip(base, more_traffic))
    assert all(after >= before for before, after in zip(base, more_nodes))
    lo, hi = sorted((s.eta, eta2))
    g_lo = dimension(dataclasses.replace(s, eta=lo), ArchitectureKind.GROOMING).total
    g_hi = dimension(dataclasses.replace(s, eta=hi), ArchitectureKind.GROOMING).total
    assert g_hi >= g_lo


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(scenarios())
def test_c08_continuum_symmetry(s):
    result = dimension(s, ArchitectureKind.CONTINUUM)
    assert result.per_level[HL4] == result.per_level[HL12]


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(scenarios())
def test_c08_bypass_dominance(s):
    grooming = dimension(s, ArchitectureKind.GROOMING).total
    continuum = dimension(s, ArchitectureKind.CONTINUUM).total
    assert continuum <= grooming
    if s.eta * s.a4_gbps > 0:
        assert continuum < grooming


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(scenarios())
def test_c08_ptmp_hub_packing(s):
    assume(s.a4_gbps <= s.channel_rate_gbps)
    topo = generate_topology(s)
    worked = dimension(s, ArchitectureKind.PTMP, topology=topo).total
    continuum = dimension(s, ArchitectureKind.CONTINUUM).total
    assert worked <= continuum


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(divisible_scenarios())
def test_c08_grooming_matches_oracle(s):
    # scoped to h3 | h4: the closed formula applies the average HL4:HL3 ratio
    topo = generate_topology(s)
    assert dict(dimension(s, ArchitectureKind.GROOMING).per_level) == grooming_oracle(s, topo)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(small_scenarios())
def test_c08_continuum_matches_oracle(s):
    topo = generate_topology(s)
    assert dict(dimension(s, ArchitectureKind.CONTINUUM).per_level) == continuum_oracle(s, topo)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(small_scenarios())
def test_c08_ptmp_matches_oracles(s):
    topo = generate_topology(s)
    assert dict(dimension(s, ArchitectureKind.PTMP, topology=topo).per_level) == ptmp_worked_oracle(s, topo)
    assert dict(
        dimension(s, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA).per_level
    ) == ptmp_formula_oracle(s)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(assignment_cases())
def test_c08_rsa_invariants(case):
    plan, topo, demands = case
    result = assign_spectrum(plan, topo, demands)
    assert len(result.lightpaths) + len(result.blocked) == sum(d.channels for d in demands)
    reaches = {b.name: b.reach_limit_km for b in plan.bands}
    used_per_link: dict = {}
    for lp in result.lightpaths:
        assert lp.route[0][0] == lp.source and lp.route[-1][1] == lp.dest
        for (_, u), (v, _) in zip(lp.route, lp.route[1:]):
            assert u == v  # continuity: one unbroken path on one (band, channel)
        assert reaches[lp.band] is None or reaches[lp.band] >= lp.length_km
        for a, b in lp.route:
            key = (a, b) if a <= b else (b, a)
            assert (lp.band, lp.channel) not in used_per_link.setdefault(key, set())
            used_per_link[key].add((lp.band, lp.channel))


# -- criterion 9: feasibility demonstration -------------------------------------

def test_c09_feasibility_demonstration(
    benchmark_scenario, benchmark_topology, ring_overload_scenario, default_plan, c_only_plan
):
    tree = feasibility_report(
        c_only_plan, benchmark_topology, ArchitectureKind.CONTINUUM, benchmark_scenario
    )
    assert tree.feasible
    assert tree.peak_link_occupancy == 5

    ring_topo = generate_topology(ring_overload_scenario)
    ring_c = feasibility_report(
        c_only_plan, ring_topo, ArchitectureKind.CONTINUUM, ring_overload_scenario
    )
    assert not ring_c.feasible
    assert ring_c.blocked_count == 20
    ring_mb = feasibility_report(
        default_plan, ring_topo, ArchitectureKind.CONTINUUM, ring_overload_scenario
    )
    assert ring_mb.feasible


# -- criterion 10: closed-form approximations ------------------------------------

def test_c10_closed_form_approximations(benchmark_scenario):
    assert math.isclose(dimension(benchmark_scenario, ArchitectureKind.GROOMING, Mode.APPROXIMATE).total, 300.0)
    assert math.isclose(dimension(benchmark_scenario, ArchitectureKind.CONTINUUM, Mode.APPROXIMATE).total, 300.0)
    assert math.isclose(dimension(benchmark_scenario, ArchitectureKind.PTMP, Mode.APPROXIMATE).total, 750.0)
    readme = (ROOT / "README.md").read_text(encoding="utf-8").lower()
    assert "closed form" in readme or "closed-form" in readme
    assert "560" in readme  # the exact count the grooming closed form diverges from
