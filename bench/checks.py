"""Output checks, run after the timed phase on every op's captured stdout.

Counts are checked against computations that do not share the library's
code path: the brute-force oracles of ``tests/oracles.py`` for continuum
and ptmp (worked-example), the README's exact rule for grooming, the cost
model's arithmetic for CAPEX, and conservation identities for spectrum.
Sweep rows are checked against ``dimension``/``cost`` recomputed on the
same point for grooming and continuum, and against the README's
worked-example rule for ptmp. A check returns the problems it found; an
empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracles  # noqa: E402
from mbplan.costing import CostModel, cost  # noqa: E402
from mbplan.dimensioning import ArchitectureKind, Mode, dimension  # noqa: E402
from mbplan.scenario import HierarchyLevel, NetworkScenario, TopologyKind, generate_topology  # noqa: E402

from workloads import Op  # noqa: E402

LEVELS = (HierarchyLevel.HL4, HierarchyLevel.HL3, HierarchyLevel.HL12)


def _last_topology(build):
    """``build(topology)`` cached for the most recent topology object."""
    cache: list = [None, None]

    def cached(topology):
        if cache[0] is not topology:
            cache[:] = [topology, build(topology)]
        return cache[1]

    return cached


# The oracles rebuild the level and adjacency maps of the whole topology on
# every call, once per HL3 in ptmp_worked_oracle. Both are pure functions of
# the topology, so caching them keeps the oracles' logic and makes checking
# a 4000-node scenario take tens of milliseconds instead of hundreds.
oracles._levels = _last_topology(oracles._levels)
oracles._adjacency = _last_topology(oracles._adjacency)


def scenario_of(doc: dict) -> NetworkScenario:
    fields = dict(doc)
    fields["topology_kind"] = TopologyKind(fields["topology_kind"])
    return NetworkScenario(**fields)


def _per_hl4_channels(s: NetworkScenario) -> int:
    return math.ceil(Fraction(s.a4_gbps) / Fraction(s.channel_rate_gbps))


def readme_grooming(s: NetworkScenario) -> dict[HierarchyLevel, int]:
    """The README's exact grooming rule, with an average-ratio uplink."""
    n4 = _per_hl4_channels(s)
    uplink = math.ceil(Fraction(s.h4, s.h3) * Fraction(s.eta) * Fraction(s.a4_gbps)
                       / Fraction(s.channel_rate_gbps))
    return {
        HierarchyLevel.HL4: n4 * s.h4,
        HierarchyLevel.HL3: n4 * s.h4 + uplink * s.h3,
        HierarchyLevel.HL12: uplink * s.h3,
    }


def _capex(arch: str, total: int, s: NetworkScenario, model: CostModel) -> float:
    unit = model.ptmp_module_cu if arch == "ptmp" else model.transponder_cu
    routers = s.h3 * model.routers_per_hl3 * model.router_large_cu if arch == "grooming" else 0.0
    return total * unit + routers


def _feasibility_problems(label: str, f: dict, requested: int) -> list[str]:
    problems = []
    if f["lightpath_count"] + f["blocked_count"] != f["requested_channels"]:
        problems.append(f"{label}: lightpaths {f['lightpath_count']} + blocked {f['blocked_count']} "
                        f"!= requested {f['requested_channels']}")
    if f["requested_channels"] != requested:
        problems.append(f"{label}: requested {f['requested_channels']}, expected {requested}")
    if f["feasible"] != (f["blocked_count"] == 0):
        problems.append(f"{label}: feasible={f['feasible']} with {f['blocked_count']} blocked")
    if not all(0.0 <= u <= 1.0 for u in f["band_utilization"].values()):
        problems.append(f"{label}: band utilization outside [0, 1]")
    return problems


def check_compare(op: Op, stdout: str, with_gap: bool) -> tuple[list[str], int]:
    s = scenario_of(op.scenario)
    report = json.loads(stdout)
    topology = generate_topology(s)
    expected = {
        "grooming": readme_grooming(s),
        "continuum": oracles.continuum_oracle(s, topology),
        "ptmp": oracles.ptmp_worked_oracle(s, topology),
    }
    model = CostModel()
    problems = []
    for arch, levels in expected.items():
        result = report["results"][arch]
        want = {lvl.value: levels[lvl] for lvl in LEVELS}
        if result["per_level"] != want or result["total"] != sum(want.values()):
            problems.append(f"{arch}: counts {result['per_level']}, expected {want}")
        capex = report["costs"]["costs"][arch]["total_cu"]
        if not math.isclose(capex, _capex(arch, sum(want.values()), s, model)):
            problems.append(f"{arch}: capex {capex}")
    requested = _per_hl4_channels(s) * s.h4
    for arch in ("continuum", "ptmp"):
        summary = report["spectrum"][arch]
        for plan in ("c_band_only", "full_plan"):
            problems += _feasibility_problems(f"{arch} {plan}", summary[plan], requested)
        if summary["c_band_only"]["blocked_count"] < summary["full_plan"]["blocked_count"]:
            problems.append(f"{arch}: C-only blocks less than the full plan")
    gap = 0
    if with_gap:
        gap = report["results"]["grooming"]["total"] - sum(oracles.grooming_oracle(s, topology).values())
    return problems, gap


def check_spectrum(op: Op, stdout: str, with_gap: bool) -> tuple[list[str], int]:
    s = scenario_of(op.scenario)
    return _feasibility_problems("full plan", json.loads(stdout), _per_hl4_channels(s) * s.h4), 0


def _sweep_points(vary: str) -> tuple[str, list[float]]:
    field, _, rng = vary.partition("=")
    start, stop, step = (float(x) for x in rng.split(":"))
    n = round((stop - start) / step) + 1
    return field, [round(start + i * step, 10) for i in range(n)]


def readme_ptmp(s: NetworkScenario, hubs: dict[int, str]) -> int:
    """The README's worked-example ptmp total over the README's attachment.

    HL4 ``i`` hangs off HL3 ``floor(i*h3/h4)``; ``hubs`` maps each HL3 index
    to its HL1/2 hub. One module per HL4 channel plus, per hub, enough
    modules for the aggregated spoke traffic.
    """
    spokes: dict[str, int] = {}
    for i in range(s.h4):
        hub = hubs[i * s.h3 // s.h4]
        spokes[hub] = spokes.get(hub, 0) + 1
    rate = Fraction(s.channel_rate_gbps)
    hub_modules = sum(math.ceil(n * Fraction(s.a4_gbps) / rate) for n in spokes.values())
    return _per_hl4_channels(s) * s.h4 + hub_modules


class _SweepOracle:
    """Expected sweep cells: grooming and continuum from ``dimension``/``cost``
    on the point, ptmp from :func:`readme_ptmp` and the cost model."""

    def __init__(self) -> None:
        self.hubs: dict[tuple, dict[int, str]] = {}
        self.model = CostModel()

    def _hubs(self, point: NetworkScenario) -> dict[int, str]:
        # HL4 leaves are not on any HL3-to-hub path, so the hubs depend on
        # h3, h12 and the topology kind only: find them with one HL4 per HL3
        key = (point.h3, point.h12, point.topology_kind)
        if key not in self.hubs:
            topology = generate_topology(replace(point, h4=point.h3))
            self.hubs[key] = {j: oracles.nearest_hl12(topology, f"hl3-{j}") for j in range(point.h3)}
        return self.hubs[key]

    def row(self, point: NetworkScenario, archs: list[str]) -> list[str]:
        cells = []
        for name in archs:
            arch = ArchitectureKind(name)
            if arch is ArchitectureKind.PTMP:
                total = readme_ptmp(point, self._hubs(point))
                capex = _capex(name, total, point, self.model)
            else:
                result = dimension(point, arch, Mode.EXACT)
                total, capex = int(result.total), cost(result, self.model, point).total_cu
            cells += [str(total), f"{capex:.2f}"]
        return cells


def check_sweep(op: Op, stdout: str, with_gap: bool) -> tuple[list[str], int]:
    s = scenario_of(op.scenario)
    field, values = _sweep_points(op.args[op.args.index("--vary") + 1])
    rows = list(csv.reader(io.StringIO(stdout)))
    archs = [a.value for a in ArchitectureKind]
    header = ["field", "value"] + [f"{a}_{col}" for a in archs for col in ("total", "capex_cu")]
    if not rows or rows[0] != header:
        return [f"sweep header {rows[:1]}"], 0
    if len(rows) - 1 != len(values):
        return [f"sweep has {len(rows) - 1} rows, expected {len(values)}"], 0
    oracle = _SweepOracle()
    problems = []
    for row, value in zip(rows[1:], values):
        typed = int(value) if field == "h4" else value
        point = replace(s, **{field: typed})
        if row[0] != field or not math.isclose(float(row[1]), value, abs_tol=1e-9):
            problems.append(f"sweep row {row[:2]}, expected {field}={value}")
        elif row[2:] != oracle.row(point, archs):
            problems.append(f"sweep {field}={row[1]}: {row[2:]}, expected {oracle.row(point, archs)}")
    gap = 0
    if with_gap and len(rows) > 1:
        first = replace(s, **{field: int(values[0]) if field == "h4" else values[0]})
        gap = int(rows[1][2]) - sum(oracles.grooming_oracle(first, generate_topology(first)).values())
    return problems, gap


CHECKS = {"compare": check_compare, "spectrum-check": check_spectrum, "sweep": check_sweep}


def check(op: Op, rc: int | str, stdout: str, with_gap: bool = False) -> tuple[list[str], int]:
    """Problems with one op's result, and its grooming-oracle gap.

    The gap is the grooming transceivers printed for the op's scenario (a
    sweep's first point) minus the per-HL3 oracle, computed only when
    ``with_gap``. The average-ratio uplink both over- and under-provisions
    when h3 does not divide h4, so the gap has either sign; it is reported,
    never failed.
    """
    if rc != 0:
        return [f"exit status {rc}"], 0
    try:
        return CHECKS[op.args[0]](op, stdout, with_gap)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], 0
