"""Command-line front end: dimension, compare, sweep, spectrum-check.

Exit codes: 0 success, 2 invalid configuration or input file, 1 internal
error. Diagnostics go to stderr, results to stdout (table, CSV or JSON).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

from .costing import CostModel, CostingError, cost, load_cost_model
from .dimensioning import (
    ArchitectureKind,
    DimensioningError,
    DimensioningResult,
    Mode,
    PtmpCountMode,
    dimension,
)
from .report import ComparisonReport, build_comparison
from .scenario import HierarchyLevel, ScenarioError, generate_topology, load_scenario, to_dict
from .spectrum import (
    RoutingError,
    SpectrumError,
    default_spectrum_plan,
    feasibility_report,
    load_spectrum_plan,
    restrict_plan,
)

CONFIG_ERRORS = (ScenarioError, SpectrumError, CostingError, DimensioningError, RoutingError, OSError)

SWEEP_FIELDS = ("a4_gbps", "eta", "h4", "fanout_m")
INTEGER_SWEEP_FIELDS = ("h4", "fanout_m")
#: most points one ``--vary`` range may expand to
MAX_SWEEP_POINTS = 10_000


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _cu(value: float) -> str:
    return f"{value:.2f}"


def _num(value: float) -> str:
    return f"{value:g}"


def _read(loader, path):
    try:
        return loader(path)
    except (ScenarioError, SpectrumError, CostingError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc  # name the file at fault


def _load_inputs(args):
    scenario = _read(load_scenario, args.scenario)
    plan = _read(load_spectrum_plan, args.plan) if getattr(args, "plan", None) else default_spectrum_plan()
    model = _read(load_cost_model, args.costs) if getattr(args, "costs", None) else CostModel()
    return scenario, plan, model


def _result_row(result: DimensioningResult) -> list[str]:
    if result.mode is Mode.EXACT:
        levels = [str(result.per_level[lvl]) for lvl in (HierarchyLevel.HL4, HierarchyLevel.HL3, HierarchyLevel.HL12)]
        total = str(int(result.total))
    else:
        levels = ["-", "-", "-"]
        total = _cu(result.total)
    return [result.arch.value] + levels + [total]


def cmd_dimension(args) -> int:
    scenario, _, _ = _load_inputs(args)
    kind = ArchitectureKind(args.arch)
    mode = Mode(args.mode)
    count_mode = PtmpCountMode(args.ptmp_count_mode)
    topology = generate_topology(scenario) if kind is ArchitectureKind.PTMP else None
    result = dimension(scenario, kind, mode, ptmp_count_mode=count_mode, topology=topology)

    if args.format == "json":
        print(json.dumps(to_dict(result), indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["arch", "mode", "ptmp_count_mode", "hl4", "hl3", "hl12", "total",
                         "electronic_hops_per_demand", "oeo_terminations_per_demand"])
        row = _result_row(result)
        writer.writerow([row[0], result.mode.value,
                         result.ptmp_count_mode.value if result.ptmp_count_mode else "",
                         row[1], row[2], row[3], row[4],
                         result.electronic_hops_per_demand, result.oeo_terminations_per_demand])
    else:
        label = result.arch.value
        if result.ptmp_count_mode:
            label += f" [{result.ptmp_count_mode.value}]"
        print(f"architecture: {label} ({result.mode.value})")
        row = _result_row(result)
        print(_table(["level", "transceivers"],
                     [["HL4", row[1]], ["HL3", row[2]], ["HL12", row[3]], ["total", row[4]]]))
        print(f"electronic hops per demand: {result.electronic_hops_per_demand}")
        print(f"o/e/o terminations per demand: {result.oeo_terminations_per_demand}")
    return 0


def render_comparison(report: ComparisonReport, show_footnotes: bool = True) -> str:
    s = report.scenario
    lines = [
        f"scenario: h4={s.h4} h3={s.h3} h12={s.h12} a4={_num(s.a4_gbps)}G "
        f"eta={_num(s.eta)} C={_num(s.channel_rate_gbps)}G m={s.fanout_m} "
        f"{s.topology_kind.value} ({_num(s.link_length_km)} km links)",
        "",
    ]
    rows = []
    for arch, result in report.results.items():
        c = report.costs.cost_of(arch)
        rows.append(_result_row(result) + [_cu(c.transceiver_cost_cu), _cu(c.router_cost_cu), _cu(c.total_cu)])
    lines.append(_table(
        ["architecture", "HL4", "HL3", "HL12", "total", "transceiver_cu", "router_cu", "total_cu"], rows))
    lines.append("")

    baseline = ArchitectureKind.GROOMING
    rows = []
    for arch in report.results:
        if arch is baseline:
            continue
        sv = report.costs.savings_between(baseline, arch)
        rows.append([arch.value, f"{sv.transponder_savings_pct:.2f}%", f"{sv.cost_savings_pct:.2f}%"])
    lines.append(f"savings vs {baseline.value}:")
    lines.append(_table(["architecture", "transponders", "capex"], rows))
    lines.append("")

    rows = []
    for arch, summary in report.spectrum.items():
        for label, feas in (("C-only", summary.c_band_only), ("full plan", summary.full_plan)):
            if feas is None:
                continue
            rows.append([arch.value, label, "yes" if feas.feasible else "NO",
                         str(feas.peak_link_occupancy), str(feas.blocked_count)])
    lines.append("spectrum feasibility:")
    lines.append(_table(["architecture", "plan", "feasible", "peak_link", "blocked"], rows))

    if show_footnotes:
        lines.append("")
        lines.append("footnotes:")
        for i, note in enumerate(report.footnotes, 1):
            lines.append(f"  [{i}] {note}")
    return "\n".join(lines)


def cmd_compare(args) -> int:
    scenario, plan, model = _load_inputs(args)
    report = build_comparison(scenario, plan, model, ptmp_count_mode=PtmpCountMode(args.ptmp_count_mode))
    if args.format == "json":
        doc = to_dict(report)
        if args.no_footnotes:
            doc["footnotes"] = []
        print(json.dumps(doc, indent=2))
    else:
        print(render_comparison(report, show_footnotes=not args.no_footnotes))
    return 0


def _parse_vary(vary: str) -> tuple[str, list[float]]:
    try:
        field, _, rng = vary.partition("=")
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ScenarioError(
            f"invalid --vary argument {vary!r} (expected field=start:stop:step)"
        ) from None
    if field not in SWEEP_FIELDS:
        raise ScenarioError(f"cannot sweep {field!r} (choose from {', '.join(SWEEP_FIELDS)})")
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ScenarioError(f"{field} sweep start, stop and step must be finite, got {rng}")
    if step <= 0:
        raise ScenarioError(f"{field} sweep step must be > 0, got {_num(step)}")
    if stop < start:
        raise ScenarioError(f"{field} sweep stop {_num(stop)} is below start {_num(start)}")
    # checked before the list is built: a tiny step would make it unbounded
    span = (stop - start) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise ScenarioError(f"{field} sweep has more than {MAX_SWEEP_POINTS} points")
    values = [round(start + i * step, 10) for i in range(int(span) + 1)]
    if field in INTEGER_SWEEP_FIELDS:
        for v in values:
            if not float(v).is_integer():
                raise ScenarioError(f"{field} sweep values must be integers, got {_num(v)}")
        values = [int(v) for v in values]
    return field, values


def cmd_sweep(args) -> int:
    scenario, _, model = _load_inputs(args)
    field, values = _parse_vary(args.vary)
    archs = []
    for name in args.arch.split(","):
        name = name.strip()
        try:
            archs.append(ArchitectureKind(name))
        except ValueError:
            raise ScenarioError(f"unknown architecture {name!r}") from None
    count_mode = PtmpCountMode(args.ptmp_count_mode)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["field", "value"]
    for arch in archs:
        header += [f"{arch.value}_total", f"{arch.value}_capex_cu"]
    writer.writerow(header)
    # only h4 of the sweepable fields changes the graph
    topology = None
    for value in values:
        point = replace(scenario, **{field: value})
        row = [field, _num(value)]
        if ArchitectureKind.PTMP in archs and (topology is None or field == "h4"):
            topology = generate_topology(point)
        for arch in archs:
            result = dimension(point, arch, Mode.EXACT, ptmp_count_mode=count_mode, topology=topology)
            capex = cost(result, model, point)
            row += [str(int(result.total)), _cu(capex.total_cu)]
        writer.writerow(row)
    return 0


def cmd_spectrum_check(args) -> int:
    scenario, plan, _ = _load_inputs(args)
    if args.bands:
        plan = restrict_plan(plan, [b.strip() for b in args.bands.split(",")])
    arch = ArchitectureKind(args.arch)
    topology = generate_topology(scenario)
    feas = feasibility_report(plan, topology, arch, scenario)
    if args.format == "json":
        print(json.dumps(to_dict(feas), indent=2))
    else:
        print(f"architecture: {arch.value}")
        print(f"bands: {','.join(b.name for b in plan.bands)} "
              f"({feas.requested_channels} channels requested)")
        print(f"feasible: {'yes' if feas.feasible else 'NO'}")
        print(f"peak link occupancy: {feas.peak_link_occupancy}")
        print(f"blocked channels: {feas.blocked_count}")
        rows = [[name, f"{util * 100:.2f}%"] for name, util in feas.band_utilization.items()]
        print(_table(["band", "peak utilization"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbplan",
        description="Dimension and cost-compare metro transport architectures "
                    "over a multi-band optical spectrum model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimension", help="transceiver counts for one architecture")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--arch", required=True, choices=[a.value for a in ArchitectureKind])
    p.add_argument("--mode", default=Mode.EXACT.value, choices=[m.value for m in Mode])
    p.add_argument("--ptmp-count-mode", default=PtmpCountMode.WORKED_EXAMPLE.value,
                   choices=[m.value for m in PtmpCountMode])
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("compare", help="all architectures: counts, CAPEX, savings, feasibility")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--plan", help="spectrum plan JSON file (default: built-in multi-band plan)")
    p.add_argument("--costs", help="cost model JSON file (default: built-in unit costs)")
    p.add_argument("--ptmp-count-mode", default=PtmpCountMode.WORKED_EXAMPLE.value,
                   choices=[m.value for m in PtmpCountMode])
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.add_argument("--no-footnotes", action="store_true", help="suppress discrepancy footnotes")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="CSV of totals/CAPEX while varying one field")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--vary", required=True, metavar="FIELD=START:STOP:STEP",
                   help=f"field in {{{','.join(SWEEP_FIELDS)}}}, stop inclusive")
    p.add_argument("--arch", default=",".join(a.value for a in ArchitectureKind),
                   help="comma-separated architecture list")
    p.add_argument("--costs", help="cost model JSON file")
    p.add_argument("--ptmp-count-mode", default=PtmpCountMode.WORKED_EXAMPLE.value,
                   choices=[m.value for m in PtmpCountMode])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum-check", help="route demands and check plan feasibility")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--plan", help="spectrum plan JSON file")
    p.add_argument("--arch", default=ArchitectureKind.CONTINUUM.value,
                   choices=[a.value for a in ArchitectureKind])
    p.add_argument("--bands", help="comma-separated band subset, e.g. --bands C")
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(func=cmd_spectrum_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
