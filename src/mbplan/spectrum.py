"""Multi-band frequency plan and first-fit routing/spectrum assignment.

The fibre spectrum spans 1260-1625 nm split into the usual five transmission
bands (O, E, S, C, L), about 53.4 THz in total, more than twelve times the
C band alone. Each band carries a channel grid and an optional transparent
reach limit: the short-wavelength bands see higher attenuation and are only
attractive over short distances, so they default to finite reach while C and
L are unlimited.

Channel counts come in two modes. ``computed`` derives them from the band
width and the grid spacing; ``declared`` uses a per-band override table.
The shipped declared defaults total 900 channels with 80 in C; the split of
the remaining 820 across O/E/S/L is proportional to the band widths
(largest-remainder rounding) - a derived table, not a measured one.

``assign_spectrum`` routes each demand on the hop-count shortest path
(lexicographic tie-break) and first-fits a (band, channel) that is free on
every link of the route - wavelength continuity, no conversion - scanning
bands in plan order and skipping bands whose reach is shorter than the
route. Channels that fit nowhere are reported as blocked, not raised.
Occupancy is one bitmask per band and link; first fit takes the lowest free bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

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


def band_width_ghz(band: Band) -> float:
    return band_width_thz(band) * 1000.0


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
        declared = self.mode is PlanMode.DECLARED
        if declared:
            missing = [b.name for b in self.bands if b.channel_count_declared is None]
            if missing:
                raise SpectrumError(
                    f"declared mode needs channel_count_declared for band(s): {', '.join(missing)}"
                )
        for band in self.bands:
            # channel_count's floor passes the cap iff the ratio reaches cap + 1; an infinite ratio has no floor
            count = band.channel_count_declared if declared else band_width_ghz(band) / self.grid_spacing_ghz + 1e-9
            if count >= _MAX_BAND_CHANNELS + 1:
                source = (f"channel_count_declared {band.channel_count_declared}" if declared
                          else f"grid_spacing_ghz {self.grid_spacing_ghz:g}")
                raise SpectrumError(f"band {band.name}: {source} gives more than {_MAX_BAND_CHANNELS} channels")

    def band(self, name: str) -> Band:
        for band in self.bands:
            if band.name == name:
                return band
        raise SpectrumError(f"no band named {name!r} in plan")


def channel_count(plan: SpectrumPlan, band: Band | str) -> int:
    """Channels available in one band under the plan's counting mode."""
    if isinstance(band, str):
        band = plan.band(band)
    if plan.mode is PlanMode.DECLARED:
        if band.channel_count_declared is None:
            raise SpectrumError(f"band {band.name}: declared mode but no declared channel count")
        return band.channel_count_declared
    return int(math.floor(band_width_ghz(band) / plan.grid_spacing_ghz + 1e-9))


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
    """One connectivity request: ``channels`` parallel carriers of the rate."""

    source: str
    dest: str
    rate_gbps: float
    channels: int


def demands_for(
    arch: ArchitectureKind, scenario: NetworkScenario, topology: PhysicalTopology
) -> list[Demand]:
    """Lightpath demand set implied by an architecture on a topology.

    Continuum and PtMP: one demand per HL4 toward its HL12 hub with
    ceil(A4/C) channels. Grooming: per-HL4 demands to the HL3 parent plus
    per-HL3 uplink demands of ceil((h4/h3)*eta*a4/C) channels to the hub.
    Zero-channel demands are dropped (a4=0 yields an empty list).
    """
    parents = topology.hl3_parent_map()
    hubs = topology.hl12_hub_map()
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
            demands.append(Demand(hl4, dest, scenario.a4_gbps, n4))
    if uplink:
        groomed = (scenario.h4 / scenario.h3) * scenario.eta * scenario.a4_gbps
        for hl3 in hl3s:
            demands.append(Demand(hl3, hubs[hl3], groomed, uplink))
    return demands


@dataclass(frozen=True)
class Lightpath:
    """An all-optical channel holding one (band, channel) on every route link."""

    source: str
    dest: str
    route: tuple[tuple[str, str], ...]
    band: str
    channel: int
    rate_gbps: float
    length_km: float


@dataclass
class SpectrumAssignment:
    """Placed and blocked channels, and the spectrum occupancy they leave.

    ``occupancy[band][link]`` has bit ``i`` set when channel ``i`` of the band
    is in use on the link; every band of the plan lists every link.
    """

    lightpaths: list[Lightpath]
    blocked: list[Demand]
    occupancy: dict[str, dict[tuple[str, str], int]]


def _shortest_path(adj: dict[str, tuple[str, ...]], hops_to: dict, source: str, dest: str) -> tuple[str, ...]:
    """Fewest-hop path, ties broken by lexicographic node sequence.

    Each step goes to the smallest-id neighbour one hop closer, by one BFS's hop counts ``hops_to[dest]``.
    """
    if source not in adj or dest not in adj:
        missing = source if source not in adj else dest
        raise RoutingError(f"unknown node {missing!r}")
    if source == dest:
        raise RoutingError(f"demand source equals destination: {source!r}")
    if dest in adj[source]:
        return (source, dest)
    hops = hops_to.get(dest)
    if hops is None:
        hops = hops_to[dest] = {dest: 0}
        frontier = [dest]
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in hops:
                    hops[nbr] = hops[node] + 1
                    frontier.append(nbr)
    if source not in hops:
        raise RoutingError(f"no route from {source!r} to {dest!r}")
    path = [source]
    while path[-1] != dest:
        path.append(next(nbr for nbr in adj[path[-1]] if hops.get(nbr) == hops[path[-1]] - 1))
    return tuple(path)


def assign_spectrum(
    plan: SpectrumPlan, topology: PhysicalTopology, demands: Sequence[Demand]
) -> SpectrumAssignment:
    """First-fit multi-band RSA over the demand list, in order.

    Each channel of a demand takes the lowest channel index free on every
    link of the route, in the first band (plan order) whose reach covers the
    route length. Unplaceable channels land in ``blocked``, one entry per
    channel, so len(lightpaths) + len(blocked) equals the requested channel
    total. Unknown or unreachable endpoints raise :class:`RoutingError`.
    """
    adj = topology.adjacency()
    hops_to: dict[str, dict[str, int]] = {}
    lengths = topology.link_lengths()
    full = {band.name: (1 << channel_count(plan, band)) - 1 for band in plan.bands}
    occupancy = {band.name: dict.fromkeys(lengths, 0) for band in plan.bands}

    lightpaths: list[Lightpath] = []
    blocked: list[Demand] = []
    for demand in demands:
        path = _shortest_path(adj, hops_to, demand.source, demand.dest)
        hops = tuple(zip(path, path[1:]))
        keys = [(a, b) if a <= b else (b, a) for a, b in hops]
        route_km = sum(lengths[k] for k in keys)
        in_reach = [(band.name, occupancy[band.name]) for band in plan.bands
                    if band.reach_limit_km is None or band.reach_limit_km >= route_km]
        per_carrier = demand.rate_gbps / demand.channels if demand.channels else 0.0
        for _ in range(demand.channels):
            for name, masks in in_reach:
                free = full[name]
                for k in keys:
                    free &= ~masks[k]
                if free:
                    break
            else:
                blocked.append(demand)
                continue
            lowest = free & -free
            for k in keys:
                masks[k] |= lowest
            lightpaths.append(
                Lightpath(
                    source=demand.source,
                    dest=demand.dest,
                    route=hops,
                    band=name,
                    channel=lowest.bit_length() - 1,
                    rate_gbps=per_carrier,
                    length_km=route_km,
                )
            )
    return SpectrumAssignment(lightpaths=lightpaths, blocked=blocked, occupancy=occupancy)


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
    demands = demands_for(arch, scenario, topology)
    return _feasibility(plan, assign_spectrum(plan, topology, demands), sum(d.channels for d in demands))


def _feasibility(plan: SpectrumPlan, assignment: SpectrumAssignment, requested: int) -> FeasibilityReport:
    """Report on the plan's bands of ``assignment``; the rest of ``requested`` is blocked."""
    counts = {band.name: channel_count(plan, band) for band in plan.bands}
    # channels in use per band and link; every band's masks list the same links in the same order
    used = [[mask.bit_count() for mask in assignment.occupancy[name].values()] for name in counts]
    placed = sum(lp.band in counts for lp in assignment.lightpaths)
    return FeasibilityReport(
        feasible=placed == requested,
        peak_link_occupancy=max(map(sum, zip(*used)), default=0),
        blocked_count=requested - placed,
        band_utilization={name: max(links, default=0) / n if n else 0.0
                          for (name, n), links in zip(counts.items(), used)},
        lightpath_count=placed,
        requested_channels=requested,
    )
