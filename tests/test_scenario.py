import json
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from mbplan.costing import CostingError, CostModel
from mbplan.scenario import (
    HierarchyLevel,
    NetworkScenario,
    ScenarioError,
    TopologyKind,
    _MAX_DEMAND_CHANNELS,
    _MAX_FANOUT,
    _MAX_H4,
    _MIN_CHANNEL_RATE_GBPS,
    generate_topology,
    load_scenario,
    scenario_from_json,
    to_dict,
)
from mbplan.spectrum import Band, SpectrumError, SpectrumPlan, default_bands
from oracles import nearest_hl12
from strategies import scenarios


def test_validate_benchmark_parameters(benchmark_scenario):
    # replace builds a new scenario, so it runs the checks again
    assert replace(benchmark_scenario) == benchmark_scenario


def test_validate_degenerate_minimum():
    s = NetworkScenario(h4=1, h3=1, h12=1, a4_gbps=0.0, eta=0.0)
    assert (s.h4, s.h3, s.h12) == (1, 1, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(h4=5, h3=10, h12=1, a4_gbps=1.0, eta=0.5), "h3 exceeds h4"),
        (dict(h4=10, h3=2, h12=5, a4_gbps=1.0, eta=0.5), "h12 exceeds h3"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=-1.0, eta=0.5), "a4_gbps"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=1.5), "eta out of range"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=-0.1), "eta out of range"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=0.5, channel_rate_gbps=0), "channel_rate_gbps"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=0.5, fanout_m=0), "fanout_m"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=0.5, link_length_km=0), "link_length_km"),
        (dict(h4=0, h3=1, h12=1, a4_gbps=1.0, eta=0.5), "h4"),
        (dict(h4=_MAX_H4 + 1, h3=1, h12=1, a4_gbps=1.0, eta=0.5), "h4 must be at most"),
        (dict(h4=10**12, h3=2, h12=1, a4_gbps=1.0, eta=0.5), "h4 must be at most"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=0.5, fanout_m=_MAX_FANOUT + 1), "fanout_m must be at most"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1.0, eta=0.5, fanout_m=10**400), "fanout_m must be at most"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=0.0, eta=0.5, channel_rate_gbps=0.5), "channel_rate_gbps must be at least"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=0.0, eta=0.5, channel_rate_gbps=5e-324), "channel_rate_gbps must be at least"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=400.0 * _MAX_DEMAND_CHANNELS + 1, eta=0.5), "a4_gbps .* per HL4"),
        (dict(h4=10, h3=2, h12=1, a4_gbps=1e308, eta=0.5), "a4_gbps .* per HL4"),
    ],
)
def test_validate_rejects_bad_fields(kwargs, message):
    with pytest.raises(ScenarioError, match=message):
        NetworkScenario(**kwargs)


def test_validate_accepts_h4_at_the_cap():
    s = NetworkScenario(h4=_MAX_H4, h3=1, h12=1, a4_gbps=1.0, eta=0.5)
    assert s.h4 == _MAX_H4


def test_scenario_accepts_values_at_the_bounds():
    s = NetworkScenario(h4=1, h3=1, h12=1, a4_gbps=_MAX_DEMAND_CHANNELS * _MIN_CHANNEL_RATE_GBPS, eta=1.0,
                        channel_rate_gbps=_MIN_CHANNEL_RATE_GBPS, fanout_m=_MAX_FANOUT)
    assert (s.channel_rate_gbps, s.fanout_m) == (_MIN_CHANNEL_RATE_GBPS, _MAX_FANOUT)
    # a4 / C is compared exactly: 1e308 Gb/s is one channel at a 1e308 Gb/s line rate
    NetworkScenario(h4=1, h3=1, h12=1, a4_gbps=1e308, eta=1.0, channel_rate_gbps=1e308)


def test_replace_checks_the_new_scenario(benchmark_scenario):
    for field, value in (("eta", 1.5), ("h4", _MAX_H4 + 1), ("fanout_m", 0)):
        with pytest.raises(ScenarioError, match=field):
            replace(benchmark_scenario, **{field: value})


def _scenario(**kwargs):
    return NetworkScenario(**{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100.0, "eta": 0.5, **kwargs})


def _band(**kwargs):
    return Band(**{"name": "C", "lambda_min_nm": 1530.0, "lambda_max_nm": 1565.0, **kwargs})


def _plan(**kwargs):
    return SpectrumPlan(bands=default_bands(), **kwargs)


FINITE_FIELDS = [
    (_scenario, ScenarioError, "a4_gbps"), (_scenario, ScenarioError, "eta"),
    (_scenario, ScenarioError, "channel_rate_gbps"), (_scenario, ScenarioError, "link_length_km"),
    (_band, SpectrumError, "lambda_min_nm"), (_band, SpectrumError, "lambda_max_nm"),
    (_band, SpectrumError, "reach_limit_km"), (_plan, SpectrumError, "grid_spacing_ghz"),
    (CostModel, CostingError, "transponder_cu"), (CostModel, CostingError, "ptmp_module_cu"),
    (CostModel, CostingError, "router_large_cu"), (CostModel, CostingError, "routers_per_hl3"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build, error, field", FINITE_FIELDS,
                         ids=[f"{b.__name__.strip('_')}-{f}" for b, _, f in FINITE_FIELDS])
def test_constructors_reject_non_finite(build, error, field, value):
    with pytest.raises(error, match=field):
        build(**{field: value})


def test_tree_topology_benchmark_counts(benchmark_scenario, benchmark_topology):
    topo = benchmark_topology
    assert len(topo.nodes) == 245
    assert len(topo.links) == 240
    children = Counter(topo.hl3_parent_map().values())
    assert set(children.values()) == {5}
    assert len(children) == 40


def test_tree_minimum_is_a_path():
    topo = generate_topology(NetworkScenario(1, 1, 1, 0.0, 0.0))
    assert len(topo.nodes) == 3
    assert len(topo.links) == 2
    assert {link.key for link in topo.links} == {("hl12-0", "hl3-0"), ("hl3-0", "hl4-0")}


def test_small_ring_cycle_plus_leaves():
    s = NetworkScenario(h4=4, h3=2, h12=1, a4_gbps=1.0, eta=0.5, topology_kind=TopologyKind.RING)
    topo = generate_topology(s)
    assert len(topo.links) == 7
    levels = {n.id: n.level for n in topo.nodes}
    cycle_links = [l for l in topo.links
                   if levels[l.a] is not HierarchyLevel.HL4 and levels[l.b] is not HierarchyLevel.HL4]
    assert len(cycle_links) == 3


def test_two_node_ring_degenerates_to_single_link(ring_overload_scenario):
    topo = generate_topology(ring_overload_scenario)
    assert len(topo.nodes) == 102
    assert len(topo.links) == 101
    assert sum(1 for l in topo.links if l.key == ("hl12-0", "hl3-0")) == 1


def test_generate_topology_deterministic(benchmark_scenario):
    assert generate_topology(benchmark_scenario) == generate_topology(benchmark_scenario)


def _components(topo):
    adj = {n.id: set() for n in topo.nodes}
    for link in topo.links:
        adj[link.a].add(link.b)
        adj[link.b].add(link.a)
    remaining = set(adj)
    groups = []
    while remaining:
        stack = [next(iter(remaining))]
        seen = {stack[0]}
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        groups.append(seen)
        remaining -= seen
    return groups


@settings(max_examples=100)
@given(scenarios())
def test_topology_balance_and_connectivity(s):
    topo = generate_topology(s)
    # children per HL3 differ by at most one
    parents = topo.hl3_parent_map()
    counts = Counter(parents.values())
    per_hl3 = [counts.get(hl3, 0) for hl3 in topo.nodes_at(HierarchyLevel.HL3)]
    assert max(per_hl3) - min(per_hl3) <= 1
    # a ring is one component; a tree is one attachment domain per HL12,
    # and every component contains exactly one HL12 every HL4 can reach
    groups = _components(topo)
    hl12s = set(topo.nodes_at(HierarchyLevel.HL12))
    if s.topology_kind is TopologyKind.RING:
        assert len(groups) == 1
    else:
        assert len(groups) == s.h12
        assert all(len(group & hl12s) == 1 for group in groups)
    # link-count identities
    cycle = s.h3 + s.h12
    expected = s.h4 + s.h3 if s.topology_kind is TopologyKind.TREE else s.h4 + (1 if cycle == 2 else cycle)
    assert len(topo.links) == expected


@settings(max_examples=100)
@given(scenarios())
def test_every_hl4_reaches_an_hl12(s):
    topo = generate_topology(s)
    parents = topo.hl3_parent_map()
    hubs = topo.hl12_hub_map()
    for hl4 in topo.nodes_at(HierarchyLevel.HL4):
        hub = hubs[parents[hl4]]
        assert hub in topo.nodes_at(HierarchyLevel.HL12)


@settings(max_examples=200)
@given(scenarios())
def test_hub_map_matches_per_hl3_search(s):
    topo = generate_topology(s)
    assert topo.hl12_hub_map() == {hl3: nearest_hl12(topo, hl3) for hl3 in topo.nodes_at(HierarchyLevel.HL3)}


@settings(max_examples=150)
@given(scenarios())
def test_scenario_json_round_trip(s):
    assert scenario_from_json(json.dumps(to_dict(s))) == s


def test_load_benchmark_file(benchmark_scenario):
    assert benchmark_scenario == NetworkScenario(
        h4=200, h3=40, h12=5, a4_gbps=300.0, eta=0.5,
        channel_rate_gbps=400.0, fanout_m=4,
        topology_kind=TopologyKind.TREE, link_length_km=50.0,
    )


def test_missing_optionals_take_defaults():
    s = scenario_from_json('{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100, "eta": 0.5}')
    assert s.channel_rate_gbps == 400.0
    assert s.fanout_m == 4
    assert s.topology_kind is TopologyKind.TREE
    assert s.link_length_km == 50.0


def test_unknown_field_rejected():
    doc = '{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100, "eta": 0.5, "fanout": 4}'
    with pytest.raises(ScenarioError, match="unknown field.*fanout"):
        scenario_from_json(doc)


def test_missing_required_field_named():
    with pytest.raises(ScenarioError, match="missing required.*eta"):
        scenario_from_json('{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100}')


def test_bad_eta_type_names_field():
    doc = '{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100, "eta": "x"}'
    with pytest.raises(ScenarioError, match="eta"):
        scenario_from_json(doc)


def test_parse_error_reports_position():
    with pytest.raises(ScenarioError, match="line 1"):
        scenario_from_json("{not json")


@pytest.mark.parametrize("text", ['{"h4": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long-int", "deep"])
def test_json_the_decoder_cannot_hold_is_rejected(text):
    with pytest.raises(ScenarioError, match="invalid JSON"):
        scenario_from_json(text)


def test_bad_topology_kind_rejected():
    doc = '{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100, "eta": 0.5, "topology_kind": "star"}'
    with pytest.raises(ScenarioError, match="topology_kind"):
        scenario_from_json(doc)


def test_save_then_load(tmp_path, benchmark_scenario):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(to_dict(benchmark_scenario)), encoding="utf-8")
    assert load_scenario(path) == benchmark_scenario


def test_fixtures_match_schema(data_dir):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((data_dir / "scenario.schema.json").read_text())
    for name in ("large_man.json", "ring_overload.json"):
        jsonschema.validate(json.loads((data_dir / name).read_text()), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"h4": 1, "h3": 1, "h12": 1, "a4_gbps": 0, "eta": 0, "bogus": 1}, schema)
    properties = schema["properties"]
    assert properties["h4"]["maximum"] == _MAX_H4
    assert properties["fanout_m"]["maximum"] == _MAX_FANOUT
    assert properties["channel_rate_gbps"]["minimum"] == _MIN_CHANNEL_RATE_GBPS
