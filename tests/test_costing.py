import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbplan.costing import (
    CostModel,
    CostingError,
    compare,
    cost,
    cost_model_from_json,
    load_cost_model,
)
from mbplan.dimensioning import ArchitectureKind, Mode, dimension
from mbplan.scenario import NetworkScenario, generate_topology
from strategies import scenarios

GROOM, CONT, PTMP = ArchitectureKind.GROOMING, ArchitectureKind.CONTINUUM, ArchitectureKind.PTMP


def test_continuum_capex_on_benchmark(benchmark_scenario):
    c = cost(dimension(benchmark_scenario, CONT), CostModel(), benchmark_scenario)
    assert c.transceiver_cost_cu == 4800.0
    assert c.router_cost_cu == 0.0
    assert c.total_cu == 4800.0


def test_grooming_capex_recomputed_from_unit_costs(benchmark_scenario):
    # 560 x 12 + 40 routers x 64 = 9280 CU (self-consistent recomputation)
    c = cost(dimension(benchmark_scenario, GROOM), CostModel(), benchmark_scenario)
    assert c.transceiver_cost_cu == 6720.0
    assert c.router_cost_cu == 2560.0
    assert c.total_cu == 9280.0


def test_ptmp_uses_module_price(benchmark_scenario, benchmark_topology):
    result = dimension(benchmark_scenario, PTMP, topology=benchmark_topology)
    c = cost(result, CostModel(ptmp_module_cu=10.0), benchmark_scenario)
    assert c.transceiver_cost_cu == 3500.0
    assert c.router_cost_cu == 0.0


def test_zero_counts_cost_nothing():
    s = NetworkScenario(4, 2, 1, 0.0, 0.5)
    c = cost(dimension(s, CONT), CostModel(), s)
    assert c.total_cu == 0.0


def test_approximate_results_are_rejected(benchmark_scenario):
    with pytest.raises(CostingError, match="exact"):
        cost(dimension(benchmark_scenario, GROOM, Mode.APPROXIMATE), CostModel(), benchmark_scenario)


def test_negative_unit_cost_rejected():
    with pytest.raises(CostingError, match="transponder_cu"):
        CostModel(transponder_cu=-1.0)


@pytest.mark.parametrize("price", ["transponder_cu", "ptmp_module_cu", "router_large_cu"])
def test_non_finite_unit_cost_rejected(price):
    for value in (math.inf, math.nan):
        with pytest.raises(CostingError, match=f"^{price} must be finite and >= 0"):
            CostModel(**{price: value})


def test_routers_per_hl3_cap():
    assert CostModel(routers_per_hl3=1000).routers_per_hl3 == 1000
    with pytest.raises(CostingError, match="^routers_per_hl3 must be at most 1000, got 1001$"):
        CostModel(routers_per_hl3=1001)


def test_capex_whose_finite_parts_overflow_names_the_router_price(benchmark_scenario):
    # 560 transponders and 40 routers, each part about 1.7e308 CU: both finite, their sum is not
    model = CostModel(transponder_cu=1.7e308 / 560, router_large_cu=1.7e308 / 40)
    result = dimension(benchmark_scenario, GROOM)
    assert math.isfinite(result.total * model.transponder_cu)
    assert math.isfinite(benchmark_scenario.h3 * model.router_large_cu)
    with pytest.raises(CostingError, match="^router_large_cu 4.25e[+]306 gives a CAPEX too large to represent$"):
        cost(result, model, benchmark_scenario)


def _benchmark_results(s, topo):
    return {
        GROOM: dimension(s, GROOM),
        CONT: dimension(s, CONT),
        PTMP: dimension(s, PTMP, topology=topo),
    }


def test_savings_on_benchmark(benchmark_scenario, benchmark_topology):
    report = compare(_benchmark_results(benchmark_scenario, benchmark_topology),
                     CostModel(), benchmark_scenario)
    g_to_c = report.savings_between(GROOM, CONT)
    assert g_to_c.transponder_savings_pct == pytest.approx(28.5714, abs=0.001)
    c_to_p = report.savings_between(CONT, PTMP)
    assert c_to_p.cost_savings_pct == pytest.approx(12.5)
    assert len(report.savings) == 6  # every ordered pair


def test_identical_results_save_nothing(benchmark_scenario):
    results = {GROOM: dimension(benchmark_scenario, GROOM),
               CONT: dimension(benchmark_scenario, GROOM)}
    # same counts either way; router term differs only via the arch tag
    report = compare(results, CostModel(router_large_cu=0.0), benchmark_scenario)
    s = report.savings_between(GROOM, CONT)
    assert s.transponder_savings_pct == 0.0
    assert s.cost_savings_pct == 0.0


def test_all_zero_scenario_saves_zero_percent():
    s = NetworkScenario(4, 2, 1, 0.0, 0.5)
    topo = generate_topology(s)
    report = compare(_benchmark_results(s, topo), CostModel(), s)
    for pair in report.savings:
        assert pair.transponder_savings_pct == 0.0


def test_savings_against_a_near_zero_baseline_name_its_price(benchmark_scenario, benchmark_topology):
    # 560 x 5e-324 CU of grooming against 350 x 12 CU of ptmp modules overflows the percentage
    model = CostModel(transponder_cu=5e-324, routers_per_hl3=0)
    with pytest.raises(CostingError, match="transponder_cu 4.94066e-324 gives grooming a CAPEX too small"):
        compare(_benchmark_results(benchmark_scenario, benchmark_topology), model, benchmark_scenario)


def test_near_zero_baseline_whose_costs_tie_names_the_unit_price(benchmark_scenario, benchmark_topology):
    # grooming pays 560 x 1 and 40 x 14 of the smallest subnormal CU for transponders and routers: a tie
    model = CostModel(transponder_cu=5e-324, router_large_cu=14 * 5e-324)
    grooming = cost(dimension(benchmark_scenario, GROOM), model, benchmark_scenario)
    assert grooming.transceiver_cost_cu == grooming.router_cost_cu > 0
    with pytest.raises(CostingError, match="^transponder_cu 4.94066e-324 gives grooming a CAPEX too small"):
        compare(_benchmark_results(benchmark_scenario, benchmark_topology), model, benchmark_scenario)


def test_compare_needs_two_architectures(benchmark_scenario):
    with pytest.raises(CostingError, match="at least 2"):
        compare({GROOM: dimension(benchmark_scenario, GROOM)}, CostModel(), benchmark_scenario)


def test_missing_pair_lookup_raises(benchmark_scenario, benchmark_topology):
    report = compare(_benchmark_results(benchmark_scenario, benchmark_topology),
                     CostModel(), benchmark_scenario)
    with pytest.raises(CostingError, match="no savings pair"):
        report.savings_between(GROOM, GROOM)


@settings(max_examples=100)
@given(scenarios(max_h4=20), st.floats(0.1, 10.0, allow_nan=False))
def test_scaling_unit_costs_scales_totals_not_savings(s, factor):
    topo = generate_topology(s)
    results = _benchmark_results(s, topo)
    base_model = CostModel()
    scaled_model = CostModel(
        transponder_cu=base_model.transponder_cu * factor,
        ptmp_module_cu=base_model.ptmp_module_cu * factor,
        router_large_cu=base_model.router_large_cu * factor,
        routers_per_hl3=base_model.routers_per_hl3,
    )
    base = compare(results, base_model, s)
    scaled = compare(results, scaled_model, s)
    for arch in results:
        assert scaled.cost_of(arch).total_cu == pytest.approx(base.cost_of(arch).total_cu * factor)
        assert scaled.cost_of(arch).total_cu >= 0.0
    for b, a in zip(base.savings, scaled.savings):
        assert a.cost_savings_pct == pytest.approx(b.cost_savings_pct, abs=1e-9)
        assert a.transponder_savings_pct == b.transponder_savings_pct
        assert a.cost_savings_pct <= 100.0 and a.transponder_savings_pct <= 100.0


@settings(max_examples=100)
@given(scenarios(max_h4=20), st.floats(1.0, 50.0), st.floats(1.0, 100.0))
def test_transponder_savings_ignore_the_cost_model(s, price_a, price_b):
    topo = generate_topology(s)
    results = _benchmark_results(s, topo)
    one = compare(results, CostModel(transponder_cu=price_a, router_large_cu=price_b), s)
    two = compare(results, CostModel(transponder_cu=price_b, router_large_cu=price_a), s)
    for pair_one, pair_two in zip(one.savings, two.savings):
        assert pair_one.transponder_savings_pct == pair_two.transponder_savings_pct


def test_cost_model_file_matches_defaults(data_dir):
    assert load_cost_model(data_dir / "default_cost_model.json") == CostModel()


def test_cost_model_json_errors():
    with pytest.raises(CostingError, match="unknown field"):
        cost_model_from_json('{"transponder_price": 3}')
    with pytest.raises(CostingError, match="router_large_cu"):
        cost_model_from_json('{"router_large_cu": "big"}')
    with pytest.raises(CostingError, match="routers_per_hl3"):
        cost_model_from_json('{"routers_per_hl3": 1.5}')
