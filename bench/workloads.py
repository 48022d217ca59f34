"""Seeded scenario generator and the benchmark's workloads.

Every op runs one ``mbplan`` CLI command on a scenario of its own, drawn
from ``random.Random(f"{workload}:{seed}:{op}")``: the same seed gives the
same inputs, and no two ops of a run share a scenario, so a cache kept
across calls gains only what a planner re-running different scenarios
would gain. Node counts are drawn independently, so h4 is in general not a
multiple of h3 (the shape on which grooming over-provisions).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: line rate every generated scenario uses (the scenario default)
CHANNEL_RATE_GBPS = 400


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the scenario document and the argv after it."""

    scenario: dict
    args: tuple[str, ...]

    def argv(self, scenario_path: str) -> list[str]:
        return [self.args[0], scenario_path, *self.args[1:]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random], Op]


def _shape(rng: random.Random, kind: str, h4: tuple[int, int], h3: tuple[int, int],
           h12: tuple[int, int], channels: int) -> dict:
    """Scenario with ``channels`` channels of 400G per HL4 and a random eta."""
    lo = (channels - 1) * CHANNEL_RATE_GBPS + 50
    return {
        "h4": rng.randint(*h4),
        "h3": rng.randint(*h3),
        "h12": rng.randint(*h12),
        "a4_gbps": rng.randint(lo, channels * CHANNEL_RATE_GBPS),
        "eta": round(rng.uniform(0.2, 0.8), 2),
        "topology_kind": kind,
    }


def _tree_route(rng: random.Random) -> Op:
    # compare runs RSA four times (continuum and ptmp, each C-only and full
    # plan) over ~8000 single-hop-to-hub demands that nearly all place:
    # per-demand routing and the redundant RSA runs dominate. About 40 HL4
    # per HL3 at 2 channels each fills the 80-channel C band, so C-only
    # blocks a little and the full plan blocks nothing.
    return Op(_shape(rng, "tree", (3800, 4200), (90, 110), (8, 12), channels=2),
              ("compare", "--format", "json"))


def _ring_exhaust(rng: random.Random) -> Op:
    # One full-plan RSA on a ring where ~50 HL4 per HL3 at 3 channels each
    # pile onto the hub links: about a fifth of the channels block, and each
    # blocked channel makes first-fit scan every eligible channel of every
    # band. The failed-placement counterpart of tree_route.
    return Op(_shape(rng, "ring", (1900, 2100), (36, 44), (4, 6), channels=3),
              ("spectrum-check", "--format", "json"))


def _sweep_dims(rng: random.Random) -> Op:
    # 20 sweep points per op, each dimensioned and costed for all three
    # architectures, with no RSA at all: isolates topology generation, the
    # per-HL3 hub BFS behind ptmp counting, dimensioning and costing.
    # eta and a4 sweeps keep one topology across the points, h4 sweeps
    # change it at every point.
    doc = _shape(rng, "ring", (3800, 4200), (90, 110), (8, 12), channels=2)
    field = rng.choice(("eta", "a4_gbps", "h4"))
    if field == "eta":
        vary = "eta=0:0.95:0.05"
    elif field == "a4_gbps":
        vary = "a4_gbps=100:2000:100"
    else:
        vary = f"h4={doc['h4']}:{doc['h4'] + 19 * 20}:20"
    return Op(doc, ("sweep", "--vary", vary))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree_route", "compare on ~4000-HL4 trees: 4 RSA runs of ~8000 channels that place, "
                 "so per-demand routing and redundant RSA show", _tree_route),
        Workload("ring_exhaust", "spectrum-check on ~2000-HL4 rings where a fifth of channels block, "
                 "so first-fit's failed-placement scan shows", _ring_exhaust),
        Workload("sweep_dims", "20-point sweeps on ~4000-HL4 rings with no RSA: topology, hub maps, "
                 "dimensioning and costing only", _sweep_dims),
    )
}


def make_op(workload: str, seed: int, index: int) -> Op:
    """The ``index``-th op of a run; depends only on its arguments."""
    return WORKLOADS[workload].make(random.Random(f"{workload}:{seed}:{index}"))


def write_scenario(op: Op, directory: Path, index: int) -> str:
    path = directory / f"op{index}.json"
    path.write_text(json.dumps(op.scenario), encoding="utf-8")
    return str(path)
