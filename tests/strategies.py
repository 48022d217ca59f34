"""Shared hypothesis strategies for randomized scenarios, plans and demands."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from mbplan.scenario import (
    HierarchyLevel, Link, NetworkScenario, Node, PhysicalTopology, TopologyKind, generate_topology, to_dict,
)
from mbplan.spectrum import Band, Demand, PlanMode, SpectrumPlan, default_bands

ETAS = st.one_of(
    st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
TRAFFIC = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=1200).map(float),
    st.floats(min_value=0.0, max_value=1200.0, allow_nan=False),
)
RATES = st.sampled_from([100.0, 200.0, 400.0, 800.0])
LINK_LENGTHS = st.sampled_from([1.0, 50.0, 120.0])
KINDS = st.sampled_from([TopologyKind.TREE, TopologyKind.RING])


@st.composite
def scenarios(draw, max_h4: int = 40, kinds=KINDS):
    h12 = draw(st.integers(1, 4))
    h3 = draw(st.integers(h12, min(8, max_h4)))
    h4 = draw(st.integers(h3, max_h4))
    return NetworkScenario(
        h4=h4,
        h3=h3,
        h12=h12,
        a4_gbps=draw(TRAFFIC),
        eta=draw(ETAS),
        channel_rate_gbps=draw(RATES),
        fanout_m=draw(st.integers(1, 8)),
        topology_kind=draw(kinds),
        link_length_km=draw(LINK_LENGTHS),
    )


@st.composite
def small_scenarios(draw, **kwargs):
    return draw(scenarios(max_h4=12, **kwargs))


@st.composite
def divisible_scenarios(draw):
    """h4 a multiple of h3 (per-node aggregation equals the average-ratio formula)."""
    h3 = draw(st.integers(1, 6))
    h4 = h3 * draw(st.integers(1, 12 // h3))
    h12 = draw(st.integers(1, h3))
    base = draw(scenarios(max_h4=12))
    return NetworkScenario(
        h4=h4, h3=h3, h12=h12,
        a4_gbps=base.a4_gbps, eta=base.eta,
        channel_rate_gbps=base.channel_rate_gbps, fanout_m=base.fanout_m,
        topology_kind=base.topology_kind, link_length_km=base.link_length_km,
    )


def _tiny_c_plan() -> SpectrumPlan:
    return SpectrumPlan(
        bands=(Band("C", 1530.0, 1565.0, reach_limit_km=None, channel_count_declared=3),),
        mode=PlanMode.DECLARED,
    )


def _coarse_computed_plan() -> SpectrumPlan:
    return SpectrumPlan(bands=default_bands(), grid_spacing_ghz=500.0, mode=PlanMode.COMPUTED)


def _short_reach_plan() -> SpectrumPlan:
    return SpectrumPlan(
        bands=(
            Band("S", 1460.0, 1530.0, reach_limit_km=500.0, channel_count_declared=6),
            Band("E", 1360.0, 1460.0, reach_limit_km=150.0, channel_count_declared=6),
            Band("O", 1260.0, 1360.0, reach_limit_km=100.0, channel_count_declared=6),
        ),
        mode=PlanMode.DECLARED,
    )


@st.composite
def c_first_plans(draw):
    """Plans led by a C band of 0-8 channels, often reach-limited, then 0-4 other bands."""
    c_band = Band(
        "C", 1530.0, 1565.0,
        reach_limit_km=draw(st.sampled_from([None, 100.0, 300.0])),
        channel_count_declared=draw(st.sampled_from([0, 1, 3, 8])),
    )
    others = draw(st.permutations([b for b in default_bands() if b.name != "C"]))
    kept = others[: draw(st.integers(0, 4))]
    rest = [replace(b, channel_count_declared=draw(st.integers(0, 6))) for b in kept]
    return SpectrumPlan(bands=(c_band, *rest), mode=PlanMode.DECLARED)


PLANS = st.sampled_from(
    [
        SpectrumPlan(bands=default_bands()),
        _tiny_c_plan(),
        _coarse_computed_plan(),
        _short_reach_plan(),
    ]
)


def _components(topology):
    adj = {n.id: set() for n in topology.nodes}
    for link in topology.links:
        adj[link.a].add(link.b)
        adj[link.b].add(link.a)
    remaining = set(adj)
    groups = []
    while remaining:
        stack = [min(remaining)]
        seen = {stack[0]}
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        groups.append(sorted(seen))
        remaining -= seen
    return groups


@st.composite
def assignment_cases(draw):
    """(plan, topology, demands): routable node pairs, random channel counts.

    Pairs are drawn within one connected component; tree topologies with
    h12 > 1 are forests of per-HL12 attachment domains.
    """
    topology = generate_topology(draw(small_scenarios()))
    return draw(PLANS), topology, _routable_demands(draw, topology, 12)


def _routable_demands(draw, topology, most):
    """Up to ``most`` demands of 1-3 channels between distinct nodes of one connected component."""
    groups = [ids for ids in _components(topology) if len(ids) > 1]
    demands = []
    for _ in range(draw(st.integers(0, most)) if groups else 0):
        ids = groups[draw(st.integers(0, len(groups) - 1))]
        i = draw(st.integers(0, len(ids) - 1))
        j = (i + draw(st.integers(1, len(ids) - 1))) % len(ids)
        channels = draw(st.integers(1, 3))
        demands.append(Demand(ids[i], ids[j], 100.0 * channels, channels))
    return demands


@st.composite
def graph_cases(draw):
    """(plan, topology, demands) on a small hand-made graph, not a generated scenario.

    Node levels are mixed at random, so HL4 nodes may be transit nodes, and
    two-digit ids make string order differ from numeric order. Random links
    give equal-hop alternative routes and disconnected parts. Demands join
    nodes of one part, and half the cases add one demand between any two
    ids: an unknown id, the same node twice or two parts, so routing may
    raise.
    """
    levels = draw(st.lists(st.sampled_from(HierarchyLevel), min_size=2, max_size=12))
    nodes = tuple(Node(f"{level.value.lower()}-{i}", level) for i, level in enumerate(levels))
    pairs = [(a.id, b.id) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * len(nodes)))
    links = tuple(Link(*(pair[::-1] if draw(st.booleans()) else pair), draw(LINK_LENGTHS)) for pair in chosen)
    topology = PhysicalTopology(nodes=nodes, links=links)
    demands = _routable_demands(draw, topology, 6)
    if draw(st.booleans()):
        endpoints = st.sampled_from([n.id for n in nodes] + ["hl3-99"])
        demands.insert(draw(st.integers(0, len(demands))), Demand(draw(endpoints), draw(endpoints), 100.0, 1))
    return draw(PLANS), topology, demands


# --- input documents for the CLI ---------------------------------------------

#: JSON numbers over the whole range: subnormals, 1e308, NaN and Infinity, integers of 400 digits;
#: the extremes also on their own, as a random float is seldom one
NUMBERS = st.one_of(st.floats(), st.integers(-10**400, 10**400),
                    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 10**400]))
#: JSON values that are not numbers
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))
_DROP = object()


def _small_or_over(small: int, cap: int):
    """Numbers at most ``small`` or above ``cap``: a count the CLI accepts stays cheap to plan."""
    return st.one_of(st.integers(-10**400, small), st.integers(cap + 1, 10**400),
                     st.floats(max_value=small), st.floats(min_value=cap + 1))


def _corrupt(draw, doc: dict, wild: dict) -> dict:
    """``doc`` with up to two fields (or the stray ``bogus``) given a wild value or dropped.

    ``wild`` maps a field to its own strategy of wild values; the others draw from NUMBERS and JUNK.
    """
    doc = dict(doc)
    for name in draw(st.lists(st.sampled_from([*doc, "bogus"]), max_size=2, unique=True)):
        value = draw(st.one_of(wild.get(name, NUMBERS), JUNK, st.just(_DROP)))
        if value is _DROP:
            doc.pop(name, None)
        else:
            doc[name] = value
    return doc


@st.composite
def scenario_documents(draw, max_h4: int, h4_cap: int):
    """Scenario objects, mostly sound; ``h4`` stays at most ``max_h4`` or above ``h4_cap``."""
    return _corrupt(draw, to_dict(draw(scenarios(max_h4=max_h4))), {"h4": _small_or_over(max_h4, h4_cap)})


@st.composite
def plan_documents(draw, band_cap: int):
    """Spectrum-plan objects, mostly sound; declared counts stay at most 1000 or above ``band_cap``."""
    doc = to_dict(draw(st.one_of(PLANS, c_first_plans())))
    wild_band = {"channel_count_declared": _small_or_over(1000, band_cap)}
    doc["bands"] = [_corrupt(draw, band, wild_band) for band in doc["bands"]]
    return _corrupt(draw, doc, {})


@st.composite
def cost_documents(draw):
    """Cost-model objects: some of the four prices, mostly sound."""
    doc = {name: draw(st.sampled_from(values)) for name, values in (
        ("transponder_cu", [0.0, 12.0, 24.5]), ("ptmp_module_cu", [0.0, 12.0]),
        ("router_large_cu", [0.0, 64.0]), ("routers_per_hl3", [0, 1, 3]),
    ) if draw(st.booleans())}
    return _corrupt(draw, doc, {})
