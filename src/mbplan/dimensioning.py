"""Transceiver-count models for the three transport architectures.

Counts are per hierarchy level for one scenario:

* grooming      - every HL4 hands its traffic to an HL3 router, which grooms
                  with oversubscription ``eta`` and relays to an HL12 node.
                  Per-HL3 uplink channels = ceil((h4/h3) * eta * a4 / C),
                  provisioned with transponders on both ends.
* continuum     - HL3 electronics are bypassed; each HL4 gets direct
                  lightpaths to its HL12 hub (one transponder per channel on
                  each end).
* ptmp          - as continuum, but with 1:m sliceable point-to-multipoint
                  pluggables; hub-side modules serve m spokes each.

Exact mode applies per-level ceilings (deployable hardware); approximate
mode returns the closed-form real-valued totals, which deliberately drop the
ceilings (and, for grooming, part of the HL3 term) and are never costed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .scenario import HierarchyLevel, NetworkScenario, PhysicalTopology


class DimensioningError(ValueError):
    """Raised for unusable dimensioning inputs (e.g. missing topology)."""


class ArchitectureKind(str, Enum):
    GROOMING = "grooming"
    CONTINUUM = "continuum"
    PTMP = "ptmp"


class Mode(str, Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


class PtmpCountMode(str, Enum):
    """How point-to-multipoint pluggables are counted.

    ``formula``: one pluggable per 1:m slice, ceil(A4/(C/m)) per HL4 node,
    hub side = ceil(total slices / m). ``worked-example``: one sliceable
    full-rate module per HL4 (ceil(A4/C)) and pooled hub modules,
    ceil(aggregate spoke traffic / C) per HL12 hub. The two disagree whenever
    a module's slices are not all needed; worked-example is the default.
    """

    FORMULA = "formula"
    WORKED_EXAMPLE = "worked-example"


@dataclass(frozen=True, kw_only=True)
class DimensioningResult:
    """Counts of one architecture; field order is the JSON key order."""

    arch: ArchitectureKind
    per_level: Mapping[HierarchyLevel, int]
    total: float
    mode: Mode
    ptmp_count_mode: PtmpCountMode | None = None
    electronic_hops_per_demand: int
    oeo_terminations_per_demand: int

    def __post_init__(self):
        if self.mode is Mode.EXACT and self.total != sum(self.per_level.values()):
            raise DimensioningError(
                f"exact total {self.total} != per-level sum {sum(self.per_level.values())}"
            )


def channels_needed(traffic_gbps: float, channel_rate_gbps: float) -> int:
    """Smallest channel count carrying ``traffic_gbps`` at the line rate.

    Exact rational arithmetic so that exact multiples never tip over a
    ceiling boundary through float rounding.
    """
    if traffic_gbps <= 0:
        return 0
    return math.ceil(Fraction(traffic_gbps) / Fraction(channel_rate_gbps))


def grooming_uplink_channels(s: NetworkScenario) -> int:
    """Channels each HL3 provisions toward its HL12: ceil((h4/h3)*eta*a4/C)."""
    load = Fraction(s.h4, s.h3) * Fraction(s.eta) * Fraction(s.a4_gbps)
    if load <= 0:
        return 0
    return math.ceil(load / Fraction(s.channel_rate_gbps))


#: approximate-mode totals: the closed forms, without ceilings
CLOSED_FORMS = {
    ArchitectureKind.GROOMING: lambda s: (1 + 2 * s.eta) * (s.a4_gbps / s.channel_rate_gbps) * s.h4,
    ArchitectureKind.CONTINUUM: lambda s: 2 * (s.a4_gbps / s.channel_rate_gbps) * s.h4,
    ArchitectureKind.PTMP: lambda s: (
        (s.a4_gbps / (s.channel_rate_gbps / s.fanout_m)) * s.h4 * (1 + 1 / s.fanout_m)
    ),
}


def dimension(
    s: NetworkScenario,
    kind: ArchitectureKind,
    mode: Mode = Mode.EXACT,
    *,
    ptmp_count_mode: PtmpCountMode = PtmpCountMode.WORKED_EXAMPLE,
    topology: PhysicalTopology | None = None,
) -> DimensioningResult:
    """Transceiver counts of one architecture.

    Grooming takes one electronic hop and two O/E/O terminations per
    demand; the bypass architectures take none. Approximate mode returns
    the ``CLOSED_FORMS`` total with no per-level counts. ``worked-example``
    ptmp counting needs the physical topology: hub modules pool the
    aggregate traffic of the HL4 nodes attached to each HL12.
    """
    count_mode = None
    if mode is Mode.APPROXIMATE:
        per_level, total = {}, CLOSED_FORMS[kind](s)
    else:
        n4 = channels_needed(s.a4_gbps, s.channel_rate_gbps)
        if kind is ArchitectureKind.GROOMING:
            uplink = grooming_uplink_channels(s)
            per_level = {
                HierarchyLevel.HL4: n4 * s.h4,
                HierarchyLevel.HL3: n4 * s.h4 + uplink * s.h3,
                HierarchyLevel.HL12: uplink * s.h3,
            }
        elif kind is ArchitectureKind.CONTINUUM:
            per_level = {HierarchyLevel.HL4: n4 * s.h4, HierarchyLevel.HL3: 0, HierarchyLevel.HL12: n4 * s.h4}
        else:
            count_mode = ptmp_count_mode
            per_level = _ptmp_counts(s, count_mode, topology)
        total = sum(per_level.values())
    grooming = kind is ArchitectureKind.GROOMING
    return DimensioningResult(
        arch=kind,
        per_level=per_level,
        total=total,
        mode=mode,
        electronic_hops_per_demand=1 if grooming else 0,
        oeo_terminations_per_demand=2 if grooming else 0,
        ptmp_count_mode=count_mode,
    )


def _ptmp_counts(
    s: NetworkScenario, count_mode: PtmpCountMode, topology: PhysicalTopology | None
) -> dict[HierarchyLevel, int]:
    """Spoke (HL4) and hub (HL12) module counts under ``count_mode``."""
    m = s.fanout_m
    if count_mode is PtmpCountMode.FORMULA:
        slices = math.ceil(Fraction(s.a4_gbps) * m / Fraction(s.channel_rate_gbps)) if s.a4_gbps > 0 else 0
        hl4 = slices * s.h4
        hl12 = math.ceil(Fraction(hl4, m)) if hl4 else 0
    else:
        if topology is None:
            raise DimensioningError("worked-example ptmp counting requires a physical topology")
        n_hl4 = len(topology.nodes_at(HierarchyLevel.HL4))
        if n_hl4 != s.h4:
            raise DimensioningError(
                f"topology has {n_hl4} HL4 nodes but scenario declares h4={s.h4}"
            )
        hl4 = channels_needed(s.a4_gbps, s.channel_rate_gbps) * s.h4
        hl12 = sum(
            channels_needed(spokes * Fraction(s.a4_gbps), s.channel_rate_gbps)
            for spokes in topology.spokes_per_hub().values()
        )
    return {HierarchyLevel.HL4: hl4, HierarchyLevel.HL3: 0, HierarchyLevel.HL12: hl12}
