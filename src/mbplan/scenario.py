"""Input data model and topology generation for metro transport planning.

A :class:`NetworkScenario` describes a three-tier metro/aggregation network:
HL4 access nodes source the traffic, HL3 nodes optionally groom it, HL1/2
nodes terminate it toward CDN/IXP peers. The scenario is the single input
record for dimensioning, spectrum feasibility and costing; it checks itself
when it is built, so an invalid scenario cannot exist. This module turns it
into a :class:`PhysicalTopology` (tree or ring) and reads the scenario JSON
format (strict: unknown fields are rejected).
It also holds the strict JSON record reader and the ``to_dict`` serialiser
that every input file and result type goes through.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import UnionType
from typing import TypeVar, get_args, get_origin, get_type_hints

R = TypeVar("R")

#: most HL4 nodes a scenario may ask for, checked before any node is generated
_MAX_H4 = 100_000

#: most channels one HL4, or one demand list, may ask for (RSA time and the blocked list grow with it)
_MAX_DEMAND_CHANNELS = 1_000_000

#: slowest line rate, so that a slice C/m of it and the closed forms stay normal floats
_MIN_CHANNEL_RATE_GBPS = 1.0

#: widest point-to-multipoint fan-out 1:m
_MAX_FANOUT = 1024


class ScenarioError(ValueError):
    """Raised for invalid scenario values or malformed scenario files."""


class TopologyKind(str, Enum):
    TREE = "tree"
    RING = "ring"


class HierarchyLevel(str, Enum):
    HL12 = "HL12"
    HL3 = "HL3"
    HL4 = "HL4"


@dataclass(frozen=True)
class NetworkScenario:
    """Node counts, traffic and equipment parameters for one planning run.

    ``h4 >= h3 >= h12 >= 1``; ratios between adjacent tiers may be
    fractional, the generators and dimensioners absorb remainders.
    """

    h4: int
    h3: int
    h12: int
    a4_gbps: float
    eta: float
    channel_rate_gbps: float = 400.0
    fanout_m: int = 4
    topology_kind: TopologyKind = TopologyKind.TREE
    link_length_km: float = 50.0

    def __post_init__(self):
        """Check every invariant; raises :class:`ScenarioError` naming the first offending field."""
        for name in ("h4", "h3", "h12"):
            if _require_count(name, getattr(self, name)) < 1:
                raise ScenarioError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.h4 > _MAX_H4:
            raise ScenarioError(f"h4 must be at most {_MAX_H4}, got {self.h4}")
        if self.h3 > self.h4:
            raise ScenarioError(f"h3 exceeds h4 (h3={self.h3}, h4={self.h4})")
        if self.h12 > self.h3:
            raise ScenarioError(f"h12 exceeds h3 (h12={self.h12}, h3={self.h3})")
        if not 0 <= self.a4_gbps < math.inf:
            raise ScenarioError(f"a4_gbps must be non-negative and finite, got {self.a4_gbps}")
        if not 0.0 <= self.eta <= 1.0:
            raise ScenarioError(f"eta out of range: {self.eta} (expected 0 <= eta <= 1)")
        if not 0 < self.channel_rate_gbps < math.inf:
            raise ScenarioError(f"channel_rate_gbps must be positive and finite, got {self.channel_rate_gbps}")
        if self.channel_rate_gbps < _MIN_CHANNEL_RATE_GBPS:
            raise ScenarioError(f"channel_rate_gbps must be at least {_MIN_CHANNEL_RATE_GBPS:g}, "
                                f"got {self.channel_rate_gbps}")
        if Fraction(self.a4_gbps) > _MAX_DEMAND_CHANNELS * Fraction(self.channel_rate_gbps):
            raise ScenarioError(f"a4_gbps {self.a4_gbps:g} needs more than {_MAX_DEMAND_CHANNELS} channels per HL4")
        if _require_count("fanout_m", self.fanout_m) < 1:
            raise ScenarioError(f"fanout_m must be >= 1, got {self.fanout_m}")
        if self.fanout_m > _MAX_FANOUT:
            raise ScenarioError(f"fanout_m must be at most {_MAX_FANOUT}, got {self.fanout_m}")
        if not isinstance(self.topology_kind, TopologyKind):
            raise ScenarioError(f"topology_kind must be a TopologyKind, got {self.topology_kind!r}")
        if not 0 < self.link_length_km < math.inf:
            raise ScenarioError(f"link_length_km must be positive and finite, got {self.link_length_km}")


def _require_count(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Node:
    id: str
    level: HierarchyLevel


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    length_km: float

    @property
    def key(self) -> tuple[str, str]:
        """Canonical undirected endpoint pair."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class PhysicalTopology:
    """Generated node/link graph; nodes carry their hierarchy level.

    The derived maps (levels, adjacency, HL3 parents, HL12 hubs) are built
    on first use and kept for the life of the instance; the map methods
    hand out copies, so the cache cannot be changed from outside.
    """

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def nodes_at(self, level: HierarchyLevel) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.level is level)

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbor ids per node, sorted for deterministic traversal."""
        return dict(self._adjacency)

    def link_lengths(self) -> dict[tuple[str, str], float]:
        return {link.key: link.length_km for link in self.links}

    def hl3_parent_map(self) -> dict[str, str]:
        """HL4 node id -> the HL3 node it hangs off."""
        return dict(self._parents)

    def hl12_hub_map(self) -> dict[str, str]:
        """HL3 node id -> its HL1/2 hub.

        The hub is the nearest HL12 over the HL3/HL12 subgraph (hop count,
        ties broken by smaller node id). In a tree this is the direct parent.
        """
        return dict(self._hubs)

    def spokes_per_hub(self) -> dict[str, int]:
        """Number of HL4 nodes whose traffic lands on each HL12 hub."""
        parents = self.hl3_parent_map()
        hubs = self.hl12_hub_map()
        counts = {hl12: 0 for hl12 in self.nodes_at(HierarchyLevel.HL12)}
        for hl4 in self.nodes_at(HierarchyLevel.HL4):
            counts[hubs[parents[hl4]]] += 1
        return counts

    @cached_property
    def _levels(self) -> dict[str, HierarchyLevel]:
        return {n.id: n.level for n in self.nodes}

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for link in self.links:
            nbrs[link.a].append(link.b)
            nbrs[link.b].append(link.a)
        return {nid: tuple(sorted(ns)) for nid, ns in nbrs.items()}

    @cached_property
    def _parents(self) -> dict[str, str]:
        levels = self._levels
        parents: dict[str, str] = {}
        for link in self.links:
            pair = {levels[link.a]: link.a, levels[link.b]: link.b}
            if set(pair) == {HierarchyLevel.HL4, HierarchyLevel.HL3}:
                parents[pair[HierarchyLevel.HL4]] = pair[HierarchyLevel.HL3]
        return parents

    @cached_property
    def _hubs(self) -> dict[str, str]:
        # One breadth-first search from every HL12 at once, never entering
        # HL4 nodes. A node's nearest hubs are the union of those of its
        # predecessors one layer closer, so its smallest-id nearest hub is
        # the smallest hub among its predecessors.
        levels = self._levels
        adj = self._adjacency
        hub = {hl12: hl12 for hl12 in self.nodes_at(HierarchyLevel.HL12)}
        frontier = list(hub)
        while frontier:
            layer: dict[str, str] = {}
            for node in frontier:
                for nbr in adj[node]:
                    if nbr not in hub and levels[nbr] is not HierarchyLevel.HL4:
                        if nbr not in layer or hub[node] < layer[nbr]:
                            layer[nbr] = hub[node]
            hub.update(layer)
            frontier = list(layer)
        hubs: dict[str, str] = {}
        for hl3 in self.nodes_at(HierarchyLevel.HL3):
            if hl3 not in hub:
                raise ScenarioError(f"no HL12 node reachable from {hl3}")
            hubs[hl3] = hub[hl3]
        return hubs


def generate_topology(scenario: NetworkScenario) -> PhysicalTopology:
    """Build the physical graph of a scenario.

    Tree: HL4 ``i`` attaches to HL3 ``floor(i*h3/h4)`` and HL3 ``j`` to HL12
    ``floor(j*h12/h3)`` (round-robin balanced, children per parent differ by
    at most one). Ring: the HL3 and HL12 nodes form one cycle with the HL12
    nodes evenly spaced, HL4 nodes attach as leaves balanced across HL3s.
    A two-node "cycle" degenerates to a single link. Every link gets
    ``link_length_km``. Deterministic: equal scenarios give equal topologies.
    """
    length = scenario.link_length_km
    hl12_ids = [f"hl12-{k}" for k in range(scenario.h12)]
    hl3_ids = [f"hl3-{j}" for j in range(scenario.h3)]
    hl4_ids = [f"hl4-{i}" for i in range(scenario.h4)]

    nodes = tuple(
        [Node(nid, HierarchyLevel.HL12) for nid in hl12_ids]
        + [Node(nid, HierarchyLevel.HL3) for nid in hl3_ids]
        + [Node(nid, HierarchyLevel.HL4) for nid in hl4_ids]
    )

    links: list[Link] = []
    if scenario.topology_kind is TopologyKind.TREE:
        for j, hl3 in enumerate(hl3_ids):
            links.append(Link(hl3, hl12_ids[j * scenario.h12 // scenario.h3], length))
    else:
        cycle_len = scenario.h3 + scenario.h12
        positions: list[str | None] = [None] * cycle_len
        for k, hl12 in enumerate(hl12_ids):
            positions[k * cycle_len // scenario.h12] = hl12
        it = iter(hl3_ids)
        cycle = [slot if slot is not None else next(it) for slot in positions]
        if cycle_len == 2:
            links.append(Link(cycle[0], cycle[1], length))
        else:
            for t in range(cycle_len):
                links.append(Link(cycle[t], cycle[(t + 1) % cycle_len], length))
    for i, hl4 in enumerate(hl4_ids):
        links.append(Link(hl4, hl3_ids[i * scenario.h3 // scenario.h4], length))

    return PhysicalTopology(nodes=nodes, links=tuple(links))


def read_record(text: str, cls: type[R], error: type[ValueError]) -> R:
    """Parse a JSON object strictly into the dataclass ``cls``.

    Field names, defaults and types come from ``cls`` itself: unknown and
    missing fields are errors, and every value must match its field's type
    (see :func:`_read_value`), and a field given twice in one object is an
    error too. Raises ``error`` naming the offending field.
    """

    def unique(pairs: list[tuple[str, object]]) -> dict:
        record: dict = {}
        for key, value in pairs:
            if key in record:
                record.setdefault(None, key)  # JSON keys are strings: None marks the first repeat
            record[key] = value
        return record

    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc
    return _read_object(raw, cls, error, "")


def _read_object(raw: object, cls: type[R], error: type[ValueError], label: str) -> R:
    prefix = f"{label}: " if label else ""
    if not isinstance(raw, dict):
        raise error(f"{label or 'document'} must be a JSON object, got {type(raw).__name__}")
    if None in raw:
        raise error(f"{prefix}duplicate field: {raw[None]}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise error(f"{prefix}unknown field(s): {', '.join(unknown)}")
    missing = [name for name, f in declared.items()
               if name not in raw and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{prefix}missing required field(s): {', '.join(missing)}")
    hints = get_type_hints(cls)
    return cls(**{name: _read_value(hints[name], value, prefix + name, error) for name, value in raw.items()})


def _read_value(hint: object, value: object, name: str, error: type[ValueError]) -> object:
    """One field's value under its declared type.

    ``int`` rejects bools and accepts integral floats; ``float`` rejects bools
    and values past the finite float range; ``X | None`` accepts null; an Enum
    is looked up by value; ``str`` must be a string; ``tuple[D, ...]`` of a
    dataclass ``D`` is a list of objects, each read as ``d #i``.
    """
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if not isinstance(value, list):
            raise error(f"{name} must be a list, got {value!r}")
        return tuple(_read_object(entry, item, error, f"{item.__name__.lower()} #{i}")
                     for i, entry in enumerate(value))
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            choices = "|".join(member.value for member in hint)
            raise error(f"{name} must be one of {choices}, got {value!r}") from None
    if hint is str:
        if not isinstance(value, str):
            raise error(f"{name} must be a string, got {value!r}")
        return value
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    if hint is int:
        if not number or isinstance(value, float) and not value.is_integer():
            raise error(f"{name} must be an integer, got {value!r}")
        return int(value)
    if hint is float:
        # compared, not converted: an integer past the float range has no float
        if not number or not -sys.float_info.max <= value <= sys.float_info.max:
            raise error(f"{name} must be a finite number, got {value!r}")
        return float(value)
    raise TypeError(f"{name}: unsupported field type {hint!r}")


def to_dict(obj: object) -> dict:
    """JSON-native fields of a dataclass instance, in field order.

    Nested dataclasses become dicts, enums (also as dict keys) their
    ``.value``, tuples lists.
    """
    return _json_native(obj)


def _json_native(value: object) -> object:
    if is_dataclass(value):
        return {f.name: _json_native(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_json_native(k): _json_native(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_native(v) for v in value]
    return value


def scenario_from_json(text: str) -> NetworkScenario:
    """Parse a scenario JSON document (strict)."""
    return read_record(text, NetworkScenario, ScenarioError)


def load_scenario(path: str | Path) -> NetworkScenario:
    return scenario_from_json(Path(path).read_text(encoding="utf-8"))
