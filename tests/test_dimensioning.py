import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbplan.dimensioning import (
    ArchitectureKind,
    DimensioningError,
    DimensioningResult,
    Mode,
    PtmpCountMode,
    channels_needed,
    dimension,
)
from mbplan.scenario import HierarchyLevel, NetworkScenario, generate_topology
from strategies import scenarios

HL4, HL3, HL12 = HierarchyLevel.HL4, HierarchyLevel.HL3, HierarchyLevel.HL12


def per_level(result):
    return (result.per_level[HL4], result.per_level[HL3], result.per_level[HL12])


def test_grooming_benchmark(benchmark_scenario):
    r = dimension(benchmark_scenario, ArchitectureKind.GROOMING)
    assert per_level(r) == (200, 280, 80)
    assert r.total == 560
    assert r.electronic_hops_per_demand == 1
    assert r.oeo_terminations_per_demand == 2


def test_grooming_fractional_uplink_ceiling():
    # per-HL3 uplink = ceil(5 * 0.5 * 500/400) = ceil(3.125) = 4
    s = NetworkScenario(h4=10, h3=2, h12=1, a4_gbps=500.0, eta=0.5)
    r = dimension(s, ArchitectureKind.GROOMING)
    assert per_level(r) == (20, 28, 8)
    assert r.total == 56


def test_grooming_zero_traffic_is_all_zero():
    s = NetworkScenario(h4=7, h3=3, h12=2, a4_gbps=0.0, eta=0.5)
    assert per_level(dimension(s, ArchitectureKind.GROOMING)) == (0, 0, 0)


def test_ptmp_formula_zero_traffic_is_all_zero():
    s = NetworkScenario(h4=7, h3=3, h12=2, a4_gbps=0.0, eta=0.5)
    assert per_level(dimension(s, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA)) == (0, 0, 0)


def test_continuum_benchmark(benchmark_scenario):
    r = dimension(benchmark_scenario, ArchitectureKind.CONTINUUM)
    assert per_level(r) == (200, 0, 200)
    assert r.total == 400
    assert r.electronic_hops_per_demand == 0
    assert r.oeo_terminations_per_demand == 0


def test_continuum_rounds_per_node():
    s = NetworkScenario(h4=10, h3=2, h12=1, a4_gbps=500.0, eta=0.5)
    r = dimension(s, ArchitectureKind.CONTINUUM)
    assert per_level(r) == (20, 0, 20)
    assert r.total == 40


def test_ptmp_worked_example_benchmark(benchmark_scenario, benchmark_topology):
    r = dimension(benchmark_scenario, ArchitectureKind.PTMP, topology=benchmark_topology)
    assert per_level(r) == (200, 0, 150)
    assert r.total == 350
    assert r.ptmp_count_mode is PtmpCountMode.WORKED_EXAMPLE
    assert r.electronic_hops_per_demand == 0


def test_ptmp_formula_benchmark(benchmark_scenario):
    r = dimension(benchmark_scenario, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA)
    assert per_level(r) == (600, 0, 150)
    assert r.total == 750


def test_ptmp_worked_example_requires_topology(benchmark_scenario):
    with pytest.raises(DimensioningError, match="topology"):
        dimension(benchmark_scenario, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.WORKED_EXAMPLE)


def test_ptmp_rejects_mismatched_topology(benchmark_scenario):
    other = generate_topology(NetworkScenario(4, 2, 1, 100.0, 0.5))
    with pytest.raises(DimensioningError, match="h4"):
        dimension(benchmark_scenario, ArchitectureKind.PTMP, topology=other)


@settings(max_examples=100)
@given(scenarios(max_h4=20))
def test_ptmp_formula_with_unit_fanout_equals_continuum(s):
    s1 = NetworkScenario(s.h4, s.h3, s.h12, s.a4_gbps, s.eta, s.channel_rate_gbps, 1,
                         s.topology_kind, s.link_length_km)
    ptmp = dimension(s1, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA)
    cont = dimension(s1, ArchitectureKind.CONTINUUM)
    assert dict(ptmp.per_level) == dict(cont.per_level)
    assert ptmp.total == cont.total


@pytest.mark.parametrize(
    "kind, expected",
    [
        (ArchitectureKind.GROOMING, 300.0),
        (ArchitectureKind.CONTINUUM, 300.0),
        (ArchitectureKind.PTMP, 750.0),
    ],
    ids=[kind.value for kind in ArchitectureKind],
)
def test_approximations_on_benchmark(benchmark_scenario, kind, expected):
    r = dimension(benchmark_scenario, kind, Mode.APPROXIMATE)
    assert r.mode is Mode.APPROXIMATE
    assert r.per_level == {}
    assert math.isclose(r.total, expected)


def test_approximations_further_points():
    s = NetworkScenario(h4=100, h3=10, h12=1, a4_gbps=400.0, eta=0.5)
    assert math.isclose(dimension(s, ArchitectureKind.GROOMING, Mode.APPROXIMATE).total, 200.0)
    assert math.isclose(dimension(s, ArchitectureKind.CONTINUUM, Mode.APPROXIMATE).total, 200.0)
    zero = NetworkScenario(h4=4, h3=2, h12=1, a4_gbps=0.0, eta=0.5)
    assert dimension(zero, ArchitectureKind.GROOMING, Mode.APPROXIMATE).total == 0
    assert dimension(zero, ArchitectureKind.CONTINUUM, Mode.APPROXIMATE).total == 0
    assert dimension(zero, ArchitectureKind.PTMP, Mode.APPROXIMATE).total == 0


def test_dispatcher_delegates(benchmark_scenario, benchmark_topology):
    exact = Mode.EXACT
    assert dimension(benchmark_scenario, ArchitectureKind.GROOMING) == dimension(
        benchmark_scenario, ArchitectureKind.GROOMING, exact)
    assert dimension(benchmark_scenario, ArchitectureKind.CONTINUUM) == dimension(
        benchmark_scenario, ArchitectureKind.CONTINUUM, exact)
    assert dimension(
        benchmark_scenario, ArchitectureKind.PTMP, topology=benchmark_topology
    ) == dimension(benchmark_scenario, ArchitectureKind.PTMP, exact,
                   ptmp_count_mode=PtmpCountMode.WORKED_EXAMPLE, topology=benchmark_topology)
    assert dimension(benchmark_scenario, ArchitectureKind.GROOMING, Mode.APPROXIMATE).mode is Mode.APPROXIMATE


def test_result_total_identity_is_checked():
    with pytest.raises(DimensioningError, match="per-level sum"):
        DimensioningResult(
            arch=ArchitectureKind.CONTINUUM,
            per_level={HL4: 1, HL3: 0, HL12: 1},
            total=3,
            mode=Mode.EXACT,
            electronic_hops_per_demand=0,
            oeo_terminations_per_demand=0,
        )


def test_channels_needed_edges():
    assert channels_needed(0.0, 400.0) == 0
    assert channels_needed(0.5, 400.0) == channels_needed(1.0, 400.0) == 1
    assert channels_needed(400.0, 400.0) == 1
    assert channels_needed(400.0001, 400.0) == 2
    assert channels_needed(1200.0, 400.0) == 3


@settings(max_examples=100)
@given(scenarios(max_h4=20), st.integers(0, 800), st.integers(0, 15))
def test_monotone_in_traffic_and_nodes(s, extra_a4, extra_h4):
    grow_a4 = NetworkScenario(s.h4, s.h3, s.h12, s.a4_gbps + extra_a4, s.eta,
                              s.channel_rate_gbps, s.fanout_m, s.topology_kind, s.link_length_km)
    grow_h4 = NetworkScenario(s.h4 + extra_h4, s.h3, s.h12, s.a4_gbps, s.eta,
                              s.channel_rate_gbps, s.fanout_m, s.topology_kind, s.link_length_km)
    for kind in (ArchitectureKind.GROOMING, ArchitectureKind.CONTINUUM):
        assert dimension(grow_a4, kind).total >= dimension(s, kind).total
        assert dimension(grow_h4, kind).total >= dimension(s, kind).total
    f = lambda sc: dimension(sc, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA).total
    assert f(grow_a4) >= f(s)
    assert f(grow_h4) >= f(s)
    w = lambda sc: dimension(sc, ArchitectureKind.PTMP, topology=generate_topology(sc)).total
    assert w(grow_a4) >= w(s)
    assert w(grow_h4) >= w(s)


@settings(max_examples=100)
@given(scenarios(max_h4=20), st.floats(0.0, 1.0, allow_nan=False))
def test_grooming_monotone_in_oversubscription(s, eta2):
    lo, hi = sorted((s.eta, eta2))
    s_lo = NetworkScenario(s.h4, s.h3, s.h12, s.a4_gbps, lo, s.channel_rate_gbps,
                           s.fanout_m, s.topology_kind, s.link_length_km)
    s_hi = NetworkScenario(s.h4, s.h3, s.h12, s.a4_gbps, hi, s.channel_rate_gbps,
                           s.fanout_m, s.topology_kind, s.link_length_km)
    assert dimension(s_hi, ArchitectureKind.GROOMING).total >= dimension(s_lo, ArchitectureKind.GROOMING).total


@settings(max_examples=100)
@given(
    st.integers(0, 4), st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
    st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([100.0, 400.0]),
)
def test_ceiling_consistency_grooming(j, k, h3, h12, eta, rate):
    # exact multiples: a4 = j*C and (h4/h3)*eta*a4 = k*eta*j*C integral
    assume(h12 <= h3)
    assume((k * j * 2 * eta) % 2 == 0)
    s = NetworkScenario(h4=k * h3, h3=h3, h12=h12, a4_gbps=j * rate, eta=eta, channel_rate_gbps=rate)
    r = dimension(s, ArchitectureKind.GROOMING)
    uplink = int(k * eta * j)
    assert per_level(r) == (j * s.h4, j * s.h4 + uplink * h3, uplink * h3)


@settings(max_examples=100)
@given(
    st.integers(0, 8), st.sampled_from([1, 2, 4, 5, 8]), st.integers(1, 6), st.integers(1, 4),
)
def test_ceiling_consistency_ptmp_formula(j, m, t, h3):
    # a4 = j*(C/m) with C/m float-exact; h4 = m*t so the hub division is integral
    h4 = m * t
    assume(h3 <= h4)
    s = NetworkScenario(h4=h4, h3=h3, h12=1, a4_gbps=j * (400.0 / m), eta=0.5,
                        channel_rate_gbps=400.0, fanout_m=m)
    r = dimension(s, ArchitectureKind.PTMP, ptmp_count_mode=PtmpCountMode.FORMULA)
    assert per_level(r) == (j * h4, 0, j * h4 // m)
