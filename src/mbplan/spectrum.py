"""Multi-band frequency plan and first-fit routing/spectrum assignment.

The fibre spectrum spans 1260-1625 nm split into the usual five transmission
bands (O, E, S, C, L), about 53.4 THz in total, more than twelve times the
C band alone. Each band carries a channel grid and an optional transparent
reach limit: the short-wavelength bands see higher attenuation and are only
attractive over short distances, so they default to finite reach while C and
L are unlimited.

Channel counts come in two modes, both read by ``channel_count`` alone:
``computed`` derives them from the band width and the grid spacing;
``declared`` uses a per-band override table. The shipped declared defaults
total 900 channels with 80 in C; the split of the remaining 820 across
O/E/S/L is proportional to the band widths (largest-remainder rounding) - a
derived table, not a measured one.

``assign_spectrum`` routes each demand on the hop-count shortest path
(lexicographic tie-break) and first-fits a (band, channel) that is free on
every link of the route - wavelength continuity, no conversion - scanning
bands in plan order and skipping bands whose reach is shorter than the
route. Demands are in channels, which ``dimensioning.channels_needed`` counts
from traffic; no rate reaches RSA. Channels that fit nowhere are reported as
blocked, not raised. Occupancy is one bitmask per band and link; first fit
takes the lowest free bit.

Within one call the routes to one destination share their in-tree: one BFS
per destination, which never enters a degree-1 node (it cannot be a transit
node), records each node's next hop, and a route is read off those next hops
with no neighbour scan. A route is a leaf source's own link, then the *trunk*
from its entry node (the leaf's one neighbour, or else the source itself) to
the destination; demands with the same (entry, destination) share the trunk,
and the last group's trunk is kept with the OR of its masks per band. A
demand's route is fixed and only its own channels change that route's masks,
so its channels are the lowest free bits of one ``full & ~OR(route masks)``
per in-reach band, which is what placing them one at a time would give. The
result holds one :class:`Placement` per demand and band, with its channels as
one mask; the per-channel lists are expanded from it on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .dimensioning import ArchitectureKind, channels_needed, grooming_uplink_channels
from .scenario import (
    _MAX_DEMAND_CHANNELS, HierarchyLevel, NetworkScenario, PhysicalTopology, ScenarioError, read_record,
)

#: speed of light in nm*THz (c = 299792458 m/s)
SPEED_OF_LIGHT_NM_THZ = 299792.458

BAND_NAMES = ("O", "E", "S", "C", "L")

DEFAULT_GRID_SPACING_GHZ = 50.0

#: most channels one band may hold, declared or computed (one occupancy bit each per link)
_MAX_BAND_CHANNELS = 100_000


class SpectrumError(ValueError):
    """Raised for invalid band/plan definitions or plan files."""


class RoutingError(ValueError):
    """Raised when a demand is structurally unroutable (not mere blocking)."""


def width_thz(lambda_min_nm: float, lambda_max_nm: float) -> float:
    """Frequency width of a wavelength range; 0 for a degenerate range."""
    return SPEED_OF_LIGHT_NM_THZ * (1.0 / lambda_min_nm - 1.0 / lambda_max_nm)


@dataclass(frozen=True)
class Band:
    """One transmission band: wavelength edges, reach limit, optional count.

    ``reach_limit_km=None`` means unlimited transparent reach.
    """

    name: str
    lambda_min_nm: float
    lambda_max_nm: float
    reach_limit_km: float | None = None
    channel_count_declared: int | None = None

    def __post_init__(self):
        if self.name not in BAND_NAMES:
            raise SpectrumError(f"unknown band name {self.name!r} (expected one of {BAND_NAMES})")
        if not 0 < self.lambda_min_nm <= self.lambda_max_nm < math.inf:
            raise SpectrumError(
                f"band {self.name}: need 0 < lambda_min_nm <= lambda_max_nm < inf, "
                f"got {self.lambda_min_nm}..{self.lambda_max_nm}"
            )
        if self.reach_limit_km is not None and not 0 < self.reach_limit_km < math.inf:
            raise SpectrumError(f"band {self.name}: reach_limit_km must be positive and finite, or null")
        declared = self.channel_count_declared
        if declared is not None and (
            isinstance(declared, bool) or not isinstance(declared, int) or declared < 0
        ):
            raise SpectrumError(
                f"band {self.name}: channel_count_declared must be an integer >= 0, got {declared!r}"
            )


def band_width_thz(band: Band) -> float:
    return width_thz(band.lambda_min_nm, band.lambda_max_nm)


class PlanMode(str, Enum):
    COMPUTED = "computed"
    DECLARED = "declared"


@dataclass(frozen=True)
class SpectrumPlan:
    """Ordered bands (assignment preference order) plus the grid rule."""

    bands: tuple[Band, ...]
    grid_spacing_ghz: float = DEFAULT_GRID_SPACING_GHZ
    mode: PlanMode = PlanMode.DECLARED

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if not self.bands:
            raise SpectrumError("bands must hold at least one band")
        names = [b.name for b in self.bands]
        if len(set(names)) != len(names):
            raise SpectrumError(f"duplicate band names in plan: {names}")
        if not 0 < self.grid_spacing_ghz < math.inf:
            raise SpectrumError(f"grid_spacing_ghz must be positive and finite, got {self.grid_spacing_ghz}")
        by_edge = sorted(self.bands, key=lambda b: b.lambda_min_nm)
        for lo, hi in zip(by_edge, by_edge[1:]):
            if hi.lambda_min_nm < lo.lambda_max_nm:
                raise SpectrumError(f"bands {lo.name} and {hi.name} overlap")
        if self.mode is PlanMode.DECLARED:
            missing = [b.name for b in self.bands if b.channel_count_declared is None]
            if missing:
                raise SpectrumError(
                    f"declared mode needs channel_count_declared for band(s): {', '.join(missing)}"
                )
        for band in self.bands:
            channel_count(self, band)

    def band(self, name: str) -> Band:
        for band in self.bands:
            if band.name == name:
                return band
        raise SpectrumError(f"no band named {name!r} in plan")


def channel_count(plan: SpectrumPlan, band: Band | str) -> int:
    """Channels in one of the plan's bands under its counting mode.

    A band that is not one of ``plan.bands``, or more than ``_MAX_BAND_CHANNELS`` channels, raises.
    """
    if isinstance(band, str):
        band = plan.band(band)
    elif band not in plan.bands:
        raise SpectrumError(f"band {band.name} is not one of the plan's bands")
    declared = plan.mode is PlanMode.DECLARED
    # the floor passes the cap iff the ratio reaches cap + 1; an infinite ratio has no floor
    count = band.channel_count_declared if declared else band_width_thz(band) * 1000.0 / plan.grid_spacing_ghz + 1e-9
    if count >= _MAX_BAND_CHANNELS + 1:
        source = (f"channel_count_declared {band.channel_count_declared}" if declared
                  else f"grid_spacing_ghz {plan.grid_spacing_ghz:g}")
        raise SpectrumError(f"band {band.name}: {source} gives more than {_MAX_BAND_CHANNELS} channels")
    return math.floor(count)


def total_channels(plan: SpectrumPlan) -> int:
    return sum(channel_count(plan, band) for band in plan.bands)


def default_bands() -> tuple[Band, ...]:
    """Shipped defaults, in assignment preference order (longest reach first).

    Declared counts: C=80 and 900 total are the reference baseline; the
    O/E/S/L split of the remaining 820 is derived (width-proportional,
    largest remainder). Reach limits are planning assumptions: C/L unlimited,
    S 500 km, E 150 km, O 100 km.
    """
    return (
        Band("C", 1530.0, 1565.0, reach_limit_km=None, channel_count_declared=80),
        Band("L", 1565.0, 1625.0, reach_limit_km=None, channel_count_declared=118),
        Band("S", 1460.0, 1530.0, reach_limit_km=500.0, channel_count_declared=157),
        Band("E", 1360.0, 1460.0, reach_limit_km=150.0, channel_count_declared=252),
        Band("O", 1260.0, 1360.0, reach_limit_km=100.0, channel_count_declared=293),
    )


def default_spectrum_plan() -> SpectrumPlan:
    return SpectrumPlan(bands=default_bands())


def restrict_plan(plan: SpectrumPlan, names: Iterable[str]) -> SpectrumPlan:
    """Same plan restricted to a subset of its bands (plan order kept)."""
    wanted = list(names)
    known = {b.name for b in plan.bands}
    unknown = [n for n in wanted if n not in known]
    if unknown:
        raise SpectrumError(f"unknown band name(s): {', '.join(unknown)}")
    bands = tuple(b for b in plan.bands if b.name in set(wanted))
    return SpectrumPlan(bands=bands, grid_spacing_ghz=plan.grid_spacing_ghz, mode=plan.mode)


def spectrum_plan_from_json(text: str) -> SpectrumPlan:
    return read_record(text, SpectrumPlan, SpectrumError)


def load_spectrum_plan(path: str | Path) -> SpectrumPlan:
    return spectrum_plan_from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Demand:
    """One connectivity request: ``channels`` parallel channels from source to dest."""

    source: str
    dest: str
    channels: int

    def __post_init__(self):
        if self.channels < 0:
            raise SpectrumError(f"demand {self.source} -> {self.dest}: channels must be >= 0, got {self.channels}")


def demands_for(
    arch: ArchitectureKind, scenario: NetworkScenario, topology: PhysicalTopology
) -> list[Demand]:
    """Lightpath demand set implied by an architecture on a topology.

    Continuum and PtMP: one demand per HL4 toward its HL12 hub with
    ceil(A4/C) channels. Grooming: per-HL4 demands to the HL3 parent plus
    per-HL3 uplink demands of ceil((h4/h3)*eta*a4/C) channels to the hub.
    Zero-channel demands are dropped (a4=0 yields an empty list). HL4
    demands come in HL4 node order, then HL3 uplinks in HL3 node order.
    """
    hubs = {hl3: hub for hl3, hub, _ in topology.hierarchy()}
    parents = topology.hl3_parent_map()
    grooming = arch is ArchitectureKind.GROOMING
    n4 = channels_needed(scenario.a4_gbps, scenario.channel_rate_gbps)
    uplink = grooming_uplink_channels(scenario) if grooming else 0
    hl4s, hl3s = topology.nodes_at(HierarchyLevel.HL4), topology.nodes_at(HierarchyLevel.HL3)
    if n4 * len(hl4s) + uplink * len(hl3s) > _MAX_DEMAND_CHANNELS:
        raise ScenarioError(f"a4_gbps {scenario.a4_gbps:g} asks for more than {_MAX_DEMAND_CHANNELS} channels")
    demands: list[Demand] = []
    if n4:
        for hl4 in hl4s:
            dest = parents[hl4] if grooming else hubs[parents[hl4]]
            demands.append(Demand(hl4, dest, n4))
    if uplink:
        for hl3 in hl3s:
            demands.append(Demand(hl3, hubs[hl3], uplink))
    return demands


@dataclass(frozen=True)
class Lightpath:
    """One placed channel of a demand: the same (band, channel) on every link of its route."""

    source: str
    dest: str
    route: tuple[tuple[str, str], ...]
    band: str
    channel: int
    length_km: float


class Placement(NamedTuple):
    """A demand's channels in one band: bit ``i`` of ``mask`` is channel ``i``, lit on every link of ``route``."""

    demand: Demand
    route: tuple[tuple[str, str], ...]
    band: str
    mask: int
    length_km: float


@dataclass
class SpectrumAssignment:
    """Placed and blocked channels, and the spectrum occupancy they leave.

    ``placements`` holds one record per demand and band it placed channels
    in, in placement order; ``unplaced`` holds ``(demand, count)`` for each
    demand with ``count`` > 0 channels that fit nowhere.
    ``occupancy[band][link]`` has bit ``i`` set when channel ``i`` of the band
    is in use on the link; every band of the plan lists every link.
    """

    placements: list[Placement]
    unplaced: list[tuple[Demand, int]]
    occupancy: dict[str, dict[tuple[str, str], int]]

    @property
    def lightpaths(self) -> list[Lightpath]:
        """One entry per placed channel, in placement order (expanded from ``placements``)."""
        return [Lightpath(p.demand.source, p.demand.dest, p.route, p.band, channel, p.length_km)
                for p in self.placements for channel in range(p.mask.bit_length()) if p.mask >> channel & 1]

    @property
    def blocked(self) -> list[Demand]:
        """One entry per blocked channel, in demand order (expanded from ``unplaced``)."""
        return [demand for demand, count in self.unplaced for _ in range(count)]


def _trunk(
    adj: dict[str, tuple[str, ...]], trees: dict[str, dict[str, tuple[str, tuple[str, str]]]],
    source: str, entry: str, dest: str,
) -> list[tuple[str, str]]:
    """Link keys from ``entry`` to ``dest`` on the fewest-hop path, ties broken by lexicographic node sequence.

    Each step goes to the smallest-id neighbour one hop closer to ``dest``, so
    the next hop depends only on the node and the destination, and the routes
    to one destination form an in-tree. ``trees[dest]`` maps every node of
    that in-tree to its next hop and the key of the link to it, from one BFS
    from ``dest``. A degree-1 node is never a transit node, so the BFS enters
    only nodes of degree 2 or more; a leaf ``source`` enters through its one
    neighbour, ``entry``, and the error names ``source``.
    """
    if entry == dest:
        return []
    steps = trees.get(dest)
    if steps is None:
        hops = {dest: 0}
        nxt = {}
        frontier = [dest]
        for node in frontier:
            for nbr in adj[node]:
                if nbr in hops:
                    if hops[nbr] == hops[node] + 1 and node < nxt[nbr]:
                        nxt[nbr] = node
                elif len(adj[nbr]) > 1:
                    hops[nbr] = hops[node] + 1
                    nxt[nbr] = node
                    frontier.append(nbr)
        steps = trees[dest] = {node: (hop, (node, hop) if node <= hop else (hop, node)) for node, hop in nxt.items()}
    if entry not in steps:
        raise RoutingError(f"no route from {source!r} to {dest!r}")
    keys = []
    node = entry
    while node != dest:
        node, key = steps[node]
        keys.append(key)
    return keys


def _hops(node: str, keys: list[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """The directed hops along the links ``keys``, from ``node`` on."""
    hops = []
    for a, b in keys:
        hops.append((node, nxt := b if a == node else a))
        node = nxt
    return tuple(hops)


def assign_spectrum(
    plan: SpectrumPlan, topology: PhysicalTopology, demands: Sequence[Demand]
) -> SpectrumAssignment:
    """First-fit multi-band RSA over the demand list, in order.

    Each channel of a demand takes the lowest channel index free on every
    link of the route, in the first band (plan order) whose reach covers the
    route length. Only a demand's own channels change its route's masks while
    it is placed, so one mask of free channels per in-reach band serves all
    of them: the demand takes that band's lowest free bits, then spills into
    the next band. Each band a demand places channels in gives one
    :class:`Placement`, and its unplaceable channels one ``unplaced`` entry,
    so the expanded ``lightpaths`` and ``blocked`` add up to the requested
    channel total. Unknown or unreachable endpoints raise :class:`RoutingError`.

    Only the last group's trunk is kept, with per band the OR of its masks,
    taken the first time one of its demands tries the band: while the group
    lasts only its own placements change the trunk, and each ORs into it.
    """
    adj = topology.adjacency()
    trees: dict[str, dict[str, tuple[str, tuple[str, str]]]] = {}
    lengths = topology.link_lengths()
    full = {band.name: (1 << channel_count(plan, band)) - 1 for band in plan.bands}
    occupancy = {band.name: dict.fromkeys(lengths, 0) for band in plan.bands}

    placements: list[Placement] = []
    unplaced: list[tuple[Demand, int]] = []
    group = None
    for demand in demands:
        source, dest = demand.source, demand.dest
        if source not in adj or dest not in adj:
            missing = source if source not in adj else dest
            raise RoutingError(f"unknown node {missing!r}")
        if source == dest:
            raise RoutingError(f"demand source equals destination: {source!r}")
        nbrs = adj[source]
        entry = nbrs[0] if len(nbrs) == 1 else source
        if group != (entry, dest):
            trunk_keys = _trunk(adj, trees, source, entry, dest)
            group = entry, dest
            trunk_lengths = list(map(lengths.__getitem__, trunk_keys))
            trunk_hops = None
            trunk_used: dict[str, int] = {}
        if entry == source:
            leaf_key = None
            route_km = sum(trunk_lengths)
        else:
            leaf_key = (source, entry) if source <= entry else (entry, source)
            route_km = sum(trunk_lengths, lengths[leaf_key])
        route = None
        need = demand.channels
        for band in plan.bands:
            if need <= 0:
                break
            if not (band.reach_limit_km is None or band.reach_limit_km >= route_km):
                continue
            name = band.name
            masks = occupancy[name]
            used = trunk_used.get(name)
            if used is None:
                used = trunk_used[name] = reduce(or_, map(masks.__getitem__, trunk_keys), 0)
            if leaf_key is not None:
                used |= masks[leaf_key]
            free = full[name] & ~used
            taken = 0
            while free and need > 0:
                lowest = free & -free
                free ^= lowest
                taken |= lowest
                need -= 1
            if taken:
                if route is None:
                    if trunk_hops is None:
                        trunk_hops = _hops(entry, trunk_keys)
                    route = trunk_hops if leaf_key is None else ((source, entry), *trunk_hops)
                placements.append(Placement(demand, route, name, taken, route_km))
                for k in trunk_keys:
                    masks[k] |= taken
                if leaf_key is not None:
                    masks[leaf_key] |= taken
                if trunk_keys:  # an empty trunk's cache stays 0: each leaf of its group has its own link
                    trunk_used[name] |= taken
        if need > 0:
            unplaced.append((demand, need))
    return SpectrumAssignment(placements=placements, unplaced=unplaced, occupancy=occupancy)


@dataclass
class FeasibilityReport:
    """Whether a demand set fits the plan, and how tight the fit is.

    ``band_utilization`` is per band the occupied fraction of its channels
    on the most loaded link (1.0 = saturated somewhere).
    """

    feasible: bool
    peak_link_occupancy: int
    blocked_count: int
    band_utilization: dict[str, float]
    lightpath_count: int
    requested_channels: int


def feasibility_report(
    plan: SpectrumPlan,
    topology: PhysicalTopology,
    arch: ArchitectureKind,
    scenario: NetworkScenario,
) -> FeasibilityReport:
    """Route and assign the architecture's demands; feasible iff none blocked."""
    return _feasibility(plan, assign_spectrum(plan, topology, demands_for(arch, scenario, topology)))


def _feasibility(plan: SpectrumPlan, assignment: SpectrumAssignment) -> FeasibilityReport:
    """Report on the plan's bands of ``assignment``; each of its channels not placed in them is blocked."""
    counts = {band.name: channel_count(plan, band) for band in plan.bands}
    # channels in use per band and link; every band's masks list the same links in the same order
    used = [[mask.bit_count() for mask in assignment.occupancy[name].values()] for name in counts]
    per_band: dict[str, int] = {}
    for p in assignment.placements:
        per_band[p.band] = per_band.get(p.band, 0) + p.mask.bit_count()
    placed = sum(per_band.get(name, 0) for name in counts)
    requested = sum(per_band.values()) + sum(count for _, count in assignment.unplaced)
    return FeasibilityReport(
        feasible=placed == requested,
        peak_link_occupancy=max(map(sum, zip(*used)), default=0),
        blocked_count=requested - placed,
        band_utilization={name: max(links, default=0) / n if n else 0.0
                          for (name, n), links in zip(counts.items(), used)},
        lightpath_count=placed,
        requested_channels=requested,
    )
