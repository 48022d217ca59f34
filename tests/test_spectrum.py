import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbplan.dimensioning import ArchitectureKind
from mbplan.scenario import (
    HierarchyLevel,
    Link,
    NetworkScenario,
    Node,
    PhysicalTopology,
    ScenarioError,
    _MAX_DEMAND_CHANNELS,
    generate_topology,
    to_dict,
)
from mbplan.spectrum import (
    Band,
    Demand,
    PlanMode,
    RoutingError,
    SpectrumError,
    SpectrumPlan,
    _MAX_BAND_CHANNELS,
    _feasibility,
    assign_spectrum,
    band_width_thz,
    channel_count,
    default_bands,
    demands_for,
    feasibility_report,
    load_spectrum_plan,
    restrict_plan,
    spectrum_plan_from_json,
    total_channels,
    width_thz,
)
from oracles import reference_assign_spectrum, reference_feasibility
from strategies import PLANS, assignment_cases, c_first_plans, graph_cases, scenarios

HL4, HL3, HL12 = HierarchyLevel.HL4, HierarchyLevel.HL3, HierarchyLevel.HL12


# --- band arithmetic ---------------------------------------------------------

def test_full_span_width():
    assert abs(width_thz(1260.0, 1625.0) - 53.44) < 0.05


def test_c_band_width():
    c = next(b for b in default_bands() if b.name == "C")
    assert abs(band_width_thz(c) - 4.382) < 0.005


def test_degenerate_band_has_zero_width():
    assert width_thz(1550.0, 1550.0) == 0.0
    band = Band("C", 1550.0, 1550.0, channel_count_declared=0)
    assert band_width_thz(band) == 0.0


def test_span_is_more_than_twelvefold_c_band():
    c = next(b for b in default_bands() if b.name == "C")
    assert width_thz(1260.0, 1625.0) / band_width_thz(c) > 12


def test_band_widths_tile_the_span(default_plan):
    total = sum(band_width_thz(b) for b in default_plan.bands)
    span = width_thz(min(b.lambda_min_nm for b in default_plan.bands),
                     max(b.lambda_max_nm for b in default_plan.bands))
    assert abs(total - span) < 0.01


# --- channel counting --------------------------------------------------------

def test_declared_counts_match_baseline(default_plan):
    assert channel_count(default_plan, "C") == 80
    assert total_channels(default_plan) == 900


def test_computed_c_band_at_50ghz():
    plan = SpectrumPlan(bands=default_bands(), grid_spacing_ghz=50.0, mode=PlanMode.COMPUTED)
    assert channel_count(plan, "C") == 87


def test_computed_zero_width_band():
    plan = SpectrumPlan(
        bands=(Band("C", 1550.0, 1550.0),), grid_spacing_ghz=50.0, mode=PlanMode.COMPUTED
    )
    assert channel_count(plan, "C") == 0
    assert total_channels(plan) == 0


def test_declared_mode_requires_counts():
    with pytest.raises(SpectrumError, match="declared"):
        SpectrumPlan(bands=(Band("C", 1530.0, 1565.0),), mode=PlanMode.DECLARED)


def test_band_channel_cap():
    # checked on the counts, before any mask of that many bits exists
    c_band = Band("C", 1530.0, 1565.0, channel_count_declared=_MAX_BAND_CHANNELS)
    assert channel_count(SpectrumPlan(bands=(c_band,)), "C") == _MAX_BAND_CHANNELS
    for count in (_MAX_BAND_CHANNELS + 1, 10**12):
        with pytest.raises(SpectrumError, match="band C: channel_count_declared"):
            SpectrumPlan(bands=(Band("C", 1530.0, 1565.0, channel_count_declared=count),))
    # 1e-300 gives a float ratio, 5e-324 an infinite one
    for spacing in (1e-3, 1e-300, 5e-324):
        with pytest.raises(SpectrumError, match="band C: grid_spacing_ghz"):
            SpectrumPlan(bands=(c_band,), grid_spacing_ghz=spacing, mode=PlanMode.COMPUTED)


def test_declared_defaults_fit_a_50ghz_grid(default_plan):
    computed = SpectrumPlan(bands=default_bands(), grid_spacing_ghz=50.0, mode=PlanMode.COMPUTED)
    for band in default_plan.bands:
        assert channel_count(default_plan, band) <= channel_count(computed, band.name)


def test_overlapping_bands_rejected():
    with pytest.raises(SpectrumError, match="overlap"):
        SpectrumPlan(
            bands=(
                Band("C", 1530.0, 1570.0, channel_count_declared=1),
                Band("L", 1565.0, 1625.0, channel_count_declared=1),
            )
        )


def test_unknown_band_name_rejected():
    with pytest.raises(SpectrumError, match="unknown band name"):
        Band("X", 1530.0, 1565.0)


def test_restrict_plan(default_plan, c_only_plan):
    assert [b.name for b in c_only_plan.bands] == ["C"]
    with pytest.raises(SpectrumError, match="unknown band"):
        restrict_plan(default_plan, ["Q"])


def test_default_plan_file_matches_builtin(data_dir, default_plan):
    assert load_spectrum_plan(data_dir / "default_spectrum_plan.json") == default_plan


def test_plan_json_round_trip(default_plan):
    assert spectrum_plan_from_json(json.dumps(to_dict(default_plan))) == default_plan


def test_plan_json_rejects_unknown_fields():
    with pytest.raises(SpectrumError, match="unknown field"):
        spectrum_plan_from_json('{"bands": [], "grid": 50}')


def test_plan_json_accepts_integral_float_counts():
    plan = spectrum_plan_from_json(
        '{"bands": [{"name": "C", "lambda_min_nm": 1530, "lambda_max_nm": 1565,'
        ' "channel_count_declared": 80.0}]}'
    )
    assert plan.bands[0].channel_count_declared == 80
    assert type(plan.bands[0].channel_count_declared) is int


def test_plan_json_rejects_bad_values():
    with pytest.raises(SpectrumError, match="band #0"):
        spectrum_plan_from_json(
            '{"bands": [{"name": "C", "lambda_min_nm": "wide", "lambda_max_nm": 1565}]}'
        )
    with pytest.raises(SpectrumError, match="channel_count_declared"):
        spectrum_plan_from_json(
            '{"bands": [{"name": "C", "lambda_min_nm": 1530, "lambda_max_nm": 1565,'
            ' "channel_count_declared": "eighty"}]}'
        )


# --- demand derivation -------------------------------------------------------

def test_continuum_demands_on_benchmark(benchmark_scenario, benchmark_topology):
    demands = demands_for(ArchitectureKind.CONTINUUM, benchmark_scenario, benchmark_topology)
    assert len(demands) == 200
    assert all(d.channels == 1 for d in demands)
    hubs = benchmark_topology.hl12_hub_map()
    parents = benchmark_topology.hl3_parent_map()
    assert all(d.dest == hubs[parents[d.source]] for d in demands)


def test_grooming_demands_on_benchmark(benchmark_scenario, benchmark_topology):
    demands = demands_for(ArchitectureKind.GROOMING, benchmark_scenario, benchmark_topology)
    access = [d for d in demands if d.source.startswith("hl4")]
    uplinks = [d for d in demands if d.source.startswith("hl3")]
    assert len(access) == 200 and all(d.channels == 1 for d in access)
    assert len(uplinks) == 40 and all(d.channels == 2 for d in uplinks)


def test_zero_traffic_means_no_demands(benchmark_topology, benchmark_scenario):
    s = NetworkScenario(200, 40, 5, 0.0, 0.5)
    for arch in ArchitectureKind:
        assert demands_for(arch, s, benchmark_topology) == []


@pytest.mark.parametrize("arch", ArchitectureKind)
def test_demand_channel_cap(arch):
    # two HL4s under one HL3: grooming adds an uplink of twice the HL4 channels
    per_hl4 = _MAX_DEMAND_CHANNELS // (4 if arch is ArchitectureKind.GROOMING else 2)
    s = NetworkScenario(h4=2, h3=1, h12=1, a4_gbps=400.0 * per_hl4, eta=1.0)
    topology = generate_topology(s)
    assert sum(d.channels for d in demands_for(arch, s, topology)) == _MAX_DEMAND_CHANNELS
    for a4 in (400.0 * (per_hl4 + 1), 1e300):
        with pytest.raises(ScenarioError, match="a4_gbps"):
            demands_for(arch, replace(s, a4_gbps=a4), topology)


# --- assignment --------------------------------------------------------------

def two_node_link():
    nodes = (Node("hl12-0", HL12), Node("hl4-0", HL4))
    links = (Link("hl4-0", "hl12-0", 50.0),)
    return PhysicalTopology(nodes=nodes, links=links)


def test_first_fit_on_empty_network(default_plan):
    topo = two_node_link()
    result = assign_spectrum(default_plan, topo, [Demand("hl4-0", "hl12-0", 400.0, 1)])
    assert len(result.lightpaths) == 1
    lp = result.lightpaths[0]
    assert (lp.band, lp.channel) == ("C", 0)
    assert result.blocked == []


def link_loads(assignment):
    """Channels in use per link, summed over the bands."""
    loads = {}
    for masks in assignment.occupancy.values():
        for key, mask in masks.items():
            loads[key] = loads.get(key, 0) + mask.bit_count()
    return loads


def test_benchmark_tree_peak_is_five(benchmark_scenario, benchmark_topology, c_only_plan):
    demands = demands_for(ArchitectureKind.CONTINUUM, benchmark_scenario, benchmark_topology)
    result = assign_spectrum(c_only_plan, benchmark_topology, demands)
    assert result.blocked == []
    assert max(link_loads(result).values()) == 5
    # the peak sits on HL3-HL12 links, carrying the 5 spokes of each HL3
    for key, used in link_loads(result).items():
        if used == 5:
            assert {key[0].split("-")[0], key[1].split("-")[0]} == {"hl12", "hl3"}


def test_ring_overload_blocking(ring_overload_scenario, default_plan, c_only_plan):
    topo = generate_topology(ring_overload_scenario)
    demands = demands_for(ArchitectureKind.CONTINUUM, ring_overload_scenario, topo)
    assert len(demands) == 100
    c_only = assign_spectrum(c_only_plan, topo, demands)
    assert len(c_only.blocked) == 20
    assert max(link_loads(c_only).values()) == 80
    full = assign_spectrum(default_plan, topo, demands)
    assert full.blocked == []
    assert max(link_loads(full).values()) == 100


def test_reach_limit_skips_short_bands():
    # 2 x 60 km route: O (100 km) is out of reach, E (150 km) is the first fit
    nodes = (Node("hl12-0", HL12), Node("hl3-0", HL3), Node("hl4-0", HL4))
    links = (Link("hl4-0", "hl3-0", 60.0), Link("hl3-0", "hl12-0", 60.0))
    topo = PhysicalTopology(nodes=nodes, links=links)
    plan = SpectrumPlan(
        bands=(
            Band("O", 1260.0, 1360.0, reach_limit_km=100.0, channel_count_declared=4),
            Band("E", 1360.0, 1460.0, reach_limit_km=150.0, channel_count_declared=4),
        )
    )
    result = assign_spectrum(plan, topo, [Demand("hl4-0", "hl12-0", 100.0, 1)])
    assert result.lightpaths[0].band == "E"
    assert result.lightpaths[0].length_km == 120.0


def test_reach_limit_is_inclusive():
    # a 2 x 50 km route exactly meets O's 100 km reach
    nodes = (Node("hl12-0", HL12), Node("hl3-0", HL3), Node("hl4-0", HL4))
    links = (Link("hl4-0", "hl3-0", 50.0), Link("hl3-0", "hl12-0", 50.0))
    plan = SpectrumPlan(bands=(Band("O", 1260.0, 1360.0, reach_limit_km=100.0, channel_count_declared=1),))
    result = assign_spectrum(plan, PhysicalTopology(nodes=nodes, links=links), [Demand("hl4-0", "hl12-0", 100.0, 1)])
    assert [lp.band for lp in result.lightpaths] == ["O"]


def test_route_ties_break_lexicographically(default_plan):
    nodes = (
        Node("hl12-0", HL12), Node("hl3-0", HL3), Node("hl3-1", HL3), Node("hl4-0", HL4),
    )
    links = (
        Link("hl4-0", "hl3-0", 50.0), Link("hl4-0", "hl3-1", 50.0),
        Link("hl3-0", "hl12-0", 50.0), Link("hl3-1", "hl12-0", 50.0),
    )
    topo = PhysicalTopology(nodes=nodes, links=links)
    result = assign_spectrum(default_plan, topo, [Demand("hl4-0", "hl12-0", 100.0, 1)])
    assert result.lightpaths[0].route == (("hl4-0", "hl3-0"), ("hl3-0", "hl12-0"))


def test_unreachable_destination_is_structural_error(default_plan):
    nodes = (Node("hl12-0", HL12), Node("hl4-0", HL4), Node("hl4-1", HL4))
    links = (Link("hl4-0", "hl12-0", 50.0),)
    topo = PhysicalTopology(nodes=nodes, links=links)
    with pytest.raises(RoutingError, match="no route"):
        assign_spectrum(default_plan, topo, [Demand("hl4-1", "hl12-0", 100.0, 1)])
    with pytest.raises(RoutingError, match="source equals destination"):
        assign_spectrum(default_plan, topo, [Demand("hl4-0", "hl4-0", 100.0, 1)])


def test_partial_blocking_conserves_channels():
    topo = two_node_link()
    plan = SpectrumPlan(bands=(Band("C", 1530.0, 1565.0, channel_count_declared=3),))
    demands = [Demand("hl4-0", "hl12-0", 400.0, 2), Demand("hl12-0", "hl4-0", 400.0, 2)]
    result = assign_spectrum(plan, topo, demands)
    assert len(result.lightpaths) == 3
    assert len(result.blocked) == 1
    assert result.blocked[0] == demands[1]


# --- randomized invariants ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(assignment_cases())
def test_assignment_invariants(case):
    plan, topo, demands = case
    result = assign_spectrum(plan, topo, demands)
    # conservation
    assert len(result.lightpaths) + len(result.blocked) == sum(d.channels for d in demands)
    # no collision on any link, and each band's link mask is exactly the channels seen there
    seen = {}
    for lp in result.lightpaths:
        for a, b in lp.route:
            key = (a, b) if a <= b else (b, a)
            assert (lp.band, lp.channel) not in seen.setdefault(key, set())
            seen[key].add((lp.band, lp.channel))
    lengths = topo.link_lengths()
    assert set(result.occupancy) == {b.name for b in plan.bands}
    for band, masks in result.occupancy.items():
        assert masks.keys() == lengths.keys()
        for key, mask in masks.items():
            assert mask == sum(1 << ch for name, ch in seen.get(key, ()) if name == band)
    reaches = {b.name: b.reach_limit_km for b in plan.bands}
    counts = {b.name: channel_count(plan, b) for b in plan.bands}
    for lp in result.lightpaths:
        # continuity: route is a connected simple path from source to dest
        assert lp.route[0][0] == lp.source and lp.route[-1][1] == lp.dest
        for (_, u), (v, _) in zip(lp.route, lp.route[1:]):
            assert u == v
        node_seq = [lp.route[0][0]] + [b for _, b in lp.route]
        assert len(set(node_seq)) == len(node_seq)
        # reach respected, channel index within the band
        assert reaches[lp.band] is None or reaches[lp.band] >= lp.length_km
        assert 0 <= lp.channel < counts[lp.band]
        assert lp.length_km == sum(
            lengths[(a, b) if a <= b else (b, a)] for a, b in lp.route
        )


@settings(max_examples=60, deadline=None)
@given(assignment_cases())
def test_assignment_deterministic(case):
    plan, topo, demands = case
    first = assign_spectrum(plan, topo, demands)
    second = assign_spectrum(plan, topo, demands)
    assert first.lightpaths == second.lightpaths
    assert first.blocked == second.blocked
    assert first.occupancy == second.occupancy


@st.composite
def architecture_cases(draw):
    """(plan, topology, demands) with the demands an architecture asks for on a generated scenario."""
    scenario = draw(scenarios())
    topology = generate_topology(scenario)
    plan = draw(st.one_of(PLANS, c_first_plans()))
    return plan, topology, demands_for(draw(st.sampled_from(ArchitectureKind)), scenario, topology)


@settings(max_examples=300, deadline=None)
@given(st.one_of(assignment_cases(), architecture_cases(), graph_cases()))
def test_assignment_matches_reference(case):
    plan, topo, demands = case
    try:
        lightpaths, blocked, occupied = reference_assign_spectrum(plan, topo, demands)
    except RoutingError as expected:
        with pytest.raises(RoutingError) as raised:
            assign_spectrum(plan, topo, demands)
        assert str(raised.value) == str(expected)
        return
    result = assign_spectrum(plan, topo, demands)
    assert result.lightpaths == lightpaths
    assert result.blocked == blocked
    assert set(result.occupancy) == {b.name for b in plan.bands}
    for band, masks in result.occupancy.items():
        assert masks.keys() == occupied.keys()
        for key, mask in masks.items():
            assert mask == sum(1 << ch for name, ch in occupied[key] if name == band)
    requested = sum(d.channels for d in demands)
    # the whole plan, and its first band alone read off the same occupancy
    for sub in (plan, restrict_plan(plan, [plan.bands[0].name])):
        assert _feasibility(sub, result, requested) == reference_feasibility(sub, lightpaths, requested)


# --- feasibility reports -----------------------------------------------------

def test_feasibility_benchmark_c_only(benchmark_scenario, benchmark_topology, c_only_plan):
    feas = feasibility_report(c_only_plan, benchmark_topology, ArchitectureKind.CONTINUUM, benchmark_scenario)
    assert feas.feasible
    assert feas.peak_link_occupancy == 5
    assert feas.blocked_count == 0
    assert feas.band_utilization["C"] == pytest.approx(5 / 80)


def test_feasibility_empty_demands(benchmark_topology, default_plan):
    s = NetworkScenario(200, 40, 5, 0.0, 0.5)
    feas = feasibility_report(default_plan, benchmark_topology, ArchitectureKind.CONTINUUM, s)
    assert feas.feasible
    assert feas.blocked_count == 0
    assert feas.peak_link_occupancy == 0
    assert all(v == 0.0 for v in feas.band_utilization.values())


def test_feasibility_ring_overload(ring_overload_scenario, default_plan, c_only_plan):
    topo = generate_topology(ring_overload_scenario)
    c_only = feasibility_report(c_only_plan, topo, ArchitectureKind.CONTINUUM, ring_overload_scenario)
    assert not c_only.feasible
    assert c_only.blocked_count == 20
    assert c_only.band_utilization["C"] == 1.0
    full = feasibility_report(default_plan, topo, ArchitectureKind.CONTINUUM, ring_overload_scenario)
    assert full.feasible
    assert full.blocked_count == 0
