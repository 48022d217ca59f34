"""Brute-force counting oracles, independent of the library's formulas.

Every count is produced by enumerating nodes and provisioning hardware one
module at a time (repeated subtraction with exact rationals), walking the
topology through its raw node/link lists rather than the library helpers.

``reference_assign_spectrum`` and ``reference_feasibility`` are the earlier
set-based first-fit engine and its lightpath re-walk, kept as the reference
the bitmask engine in ``mbplan.spectrum`` is checked against.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction

from mbplan.scenario import HierarchyLevel, NetworkScenario, PhysicalTopology
from mbplan.spectrum import FeasibilityReport, Lightpath, RoutingError, channel_count


@functools.cache
def modules_one_by_one(traffic_gbps, unit_capacity) -> int:
    """Provision units until the residual demand is covered.

    Cached: the oracles ask the same question once per node, and the answer
    depends on the two numbers alone.
    """
    residual = Fraction(traffic_gbps)
    capacity = Fraction(unit_capacity)
    count = 0
    while residual > 0:
        residual -= capacity
        count += 1
    return count


def _levels(topology: PhysicalTopology) -> dict[str, HierarchyLevel]:
    return {n.id: n.level for n in topology.nodes}


def _adjacency(topology: PhysicalTopology) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {n.id: [] for n in topology.nodes}
    for link in topology.links:
        adj[link.a].append(link.b)
        adj[link.b].append(link.a)
    return adj


def _hl3_children(topology: PhysicalTopology) -> dict[str, list[str]]:
    levels = _levels(topology)
    children: dict[str, list[str]] = {
        n.id: [] for n in topology.nodes if n.level is HierarchyLevel.HL3
    }
    for link in topology.links:
        la, lb = levels[link.a], levels[link.b]
        if {la, lb} == {HierarchyLevel.HL4, HierarchyLevel.HL3}:
            hl3 = link.a if la is HierarchyLevel.HL3 else link.b
            hl4 = link.b if la is HierarchyLevel.HL3 else link.a
            children[hl3].append(hl4)
    return children


def nearest_hl12(topology: PhysicalTopology, start: str) -> str:
    """Closest HL12 over the HL3/HL12 subgraph; ties broken by smaller id."""
    levels = _levels(topology)
    adj = _adjacency(topology)
    frontier, seen = [start], {start}
    while frontier:
        hits = sorted(n for n in frontier if levels[n] is HierarchyLevel.HL12)
        if hits:
            return hits[0]
        nxt = []
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in seen and levels[nbr] is not HierarchyLevel.HL4:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    raise AssertionError(f"no HL12 reachable from {start}")


def grooming_oracle(s: NetworkScenario, topology: PhysicalTopology) -> dict[HierarchyLevel, int]:
    children = _hl3_children(topology)
    rate = s.channel_rate_gbps
    hl4 = hl3 = hl12 = 0
    for kids in children.values():
        for _ in kids:
            n = modules_one_by_one(s.a4_gbps, rate)
            hl4 += n
            hl3 += n  # HL3 transponder facing each HL4
        groomed = Fraction(s.eta) * Fraction(s.a4_gbps) * len(kids)
        uplink = modules_one_by_one(groomed, rate)
        hl3 += uplink
        hl12 += uplink  # 1:1 mapping of hub transponders to HL3 uplinks
    return {HierarchyLevel.HL4: hl4, HierarchyLevel.HL3: hl3, HierarchyLevel.HL12: hl12}


def continuum_oracle(s: NetworkScenario, topology: PhysicalTopology) -> dict[HierarchyLevel, int]:
    levels = _levels(topology)
    hl4 = hl12 = 0
    for node in topology.nodes:
        if node.level is HierarchyLevel.HL4:
            n = modules_one_by_one(s.a4_gbps, s.channel_rate_gbps)
            hl4 += n
            hl12 += n  # matching transponder at the hub end of each lightpath
    assert levels  # topology sanity
    return {HierarchyLevel.HL4: hl4, HierarchyLevel.HL3: 0, HierarchyLevel.HL12: hl12}


def ptmp_worked_oracle(s: NetworkScenario, topology: PhysicalTopology) -> dict[HierarchyLevel, int]:
    children = _hl3_children(topology)
    hub_traffic: dict[str, Fraction] = {}
    hl4 = 0
    for hl3, kids in children.items():
        hub = nearest_hl12(topology, hl3)
        for _ in kids:
            hl4 += modules_one_by_one(s.a4_gbps, s.channel_rate_gbps)
            hub_traffic[hub] = hub_traffic.get(hub, Fraction(0)) + Fraction(s.a4_gbps)
    hl12 = sum(modules_one_by_one(t, s.channel_rate_gbps) for t in hub_traffic.values())
    return {HierarchyLevel.HL4: hl4, HierarchyLevel.HL3: 0, HierarchyLevel.HL12: hl12}


def ptmp_formula_oracle(s: NetworkScenario) -> dict[HierarchyLevel, int]:
    slice_rate = Fraction(s.channel_rate_gbps) / s.fanout_m
    slices = 0
    for _ in range(s.h4):
        slices += modules_one_by_one(s.a4_gbps, slice_rate)
    hubs = modules_one_by_one(slices, s.fanout_m)
    return {HierarchyLevel.HL4: slices, HierarchyLevel.HL3: 0, HierarchyLevel.HL12: hubs}


def _shortest_path(adj, source, dest):
    """Min-hop path, ties by lexicographic node sequence."""
    if source not in adj or dest not in adj:
        missing = source if source not in adj else dest
        raise RoutingError(f"unknown node {missing!r}")
    if source == dest:
        raise RoutingError(f"demand source equals destination: {source!r}")
    heap = [(0.0, (source,))]
    done = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dest:
            return path
        for nbr in adj[node]:
            if nbr not in done:
                heapq.heappush(heap, (cost + 1.0, path + (nbr,)))
    raise RoutingError(f"no route from {source!r} to {dest!r}")


def _first_fit(plan, counts, occupied, keys, route_km):
    for band in plan.bands:
        if band.reach_limit_km is not None and band.reach_limit_km < route_km:
            continue
        n = counts[band.name]
        used = set().union(*(occupied[k] for k in keys)) if keys else set()
        for ch in range(n):
            if (band.name, ch) not in used:
                return band.name, ch
    return None


def reference_assign_spectrum(plan, topology, demands):
    """First-fit RSA on per-link sets of (band, channel), one channel of a demand at a time.

    Returns ``(lightpaths, blocked, occupied)``, where ``occupied`` maps
    every link key to the set of (band, channel) pairs in use on it.
    """
    adj = topology.adjacency()
    lengths = topology.link_lengths()
    counts = {band.name: channel_count(plan, band) for band in plan.bands}
    occupied = {link.key: set() for link in topology.links}

    lightpaths = []
    blocked = []
    for demand in demands:
        path = _shortest_path(adj, demand.source, demand.dest)
        hops = tuple(zip(path, path[1:]))
        keys = [(a, b) if a <= b else (b, a) for a, b in hops]
        route_km = sum(lengths[k] for k in keys)
        for _ in range(demand.channels):
            slot = _first_fit(plan, counts, occupied, keys, route_km)
            if slot is None:
                blocked.append(demand)
                continue
            band_name, ch = slot
            for k in keys:
                occupied[k].add((band_name, ch))
            lightpaths.append(
                Lightpath(
                    source=demand.source,
                    dest=demand.dest,
                    route=hops,
                    band=band_name,
                    channel=ch,
                    length_km=route_km,
                )
            )
    return lightpaths, blocked, occupied


def reference_feasibility(plan, lightpaths, requested):
    """Report rebuilt by walking every lightpath in the plan's bands link by link."""
    counts = {band.name: channel_count(plan, band) for band in plan.bands}
    per_link_band = {}
    placed = 0
    for lp in lightpaths:
        if lp.band not in counts:
            continue
        placed += 1
        for a, b in lp.route:
            bands = per_link_band.setdefault((a, b) if a <= b else (b, a), {})
            bands[lp.band] = bands.get(lp.band, 0) + 1
    utilization = {}
    for name, n in counts.items():
        peak = max((bands.get(name, 0) for bands in per_link_band.values()), default=0)
        utilization[name] = (peak / n) if n else 0.0
    return FeasibilityReport(
        feasible=placed == requested,
        peak_link_occupancy=max((sum(bands.values()) for bands in per_link_band.values()), default=0),
        blocked_count=requested - placed,
        band_utilization=utilization,
        lightpath_count=placed,
        requested_channels=requested,
    )
