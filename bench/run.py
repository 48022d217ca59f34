#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``mbplan`` CLI.

One client drives ``mbplan.cli.main(argv)`` in a closed loop, in this
process: each op writes a freshly generated scenario file, runs one CLI
command on it with stdout captured in memory, and the next op starts when it
returns. After the timed phase every op's output is checked (``checks.py``);
an op that raised, exited non-zero or failed a check counts as failed.

    python3 bench/run.py --workload tree_route --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 10

``--trace 0`` reports the end-to-end metrics, measured untraced. ``--trace 1``
runs each op untraced and traced (``spans.py``) in turn and reports the
per-layer metrics, per op, plus the tracing overhead. The last line of
stdout is one JSON object; the full result, with the environment, and the
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 9

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

#: what a fresh interpreter does before its first op can run
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import mbplan.cli
from mbplan.costing import CostModel
from mbplan.scenario import load_scenario
from mbplan.spectrum import default_spectrum_plan
load_scenario(sys.argv[2]), default_spectrum_plan(), CostModel()
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

END_TO_END_UNITS = {
    "plan_s.p50": "s",
    "plan_s.tail": "s",
    "plans_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return {"spectrum.rsa_us_per_channel": "us", "cli.output_bytes": "bytes"}.get(name, "count")


def run_op(cli, argv: list[str]) -> tuple[int | str, float, str]:
    """One CLI command: exit status (or what it raised), wall seconds, stdout."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the benchmark must survive a failing op to count it
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, out.getvalue()


def tail(times: list[float]) -> tuple[float, int, int]:
    """Time at the highest percentile leaving >= TAIL_BEYOND samples beyond.

    Returns (time, percentile, samples beyond). Nearest-rank percentiles;
    with fewer than 2 * TAIL_BEYOND samples this falls back to the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    rank = math.ceil(n / 2)
    return ordered[rank - 1], 50, n - rank


def measure_setup(scenario_path: str) -> float:
    """Median time from spawning an interpreter to its first op being ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), scenario_path],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import mbplan.cli as cli
    from checks import check
    from spans import Tracer, install, layer_metrics, uninstall
    from workloads import WORKLOADS, make_op, write_scenario

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    tracer = Tracer()
    runs = []  # (op, rc, seconds, stdout, traced)
    try:
        warm = make_op(name, seed, 0)
        warm_path = write_scenario(warm, workdir, 0)
        setup_s = measure_setup(warm_path)
        runs.append((warm, *run_op(cli, warm.argv(warm_path)), False))

        index = 1
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            op = make_op(name, seed, index)
            argv = op.argv(write_scenario(op, workdir, index))
            order = (False, True) if index % 2 else (True, False)
            for traced in (order if trace else (False,)):
                if traced:
                    tracer.op = index
                    patches = install(tracer)
                    try:
                        runs.append((op, *run_op(cli, argv), True))
                    finally:
                        uninstall(patches)
                else:
                    runs.append((op, *run_op(cli, argv), False))
            index += 1
        phase_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a traced op repeats its untraced twin's input, so it must repeat its output
    untraced = {id(op): stdout for op, _, _, stdout, traced in runs if not traced}
    failures, gaps = [], []
    for op, rc, _, stdout, traced in runs:
        if traced:
            problems = [] if stdout == untraced[id(op)] else ["traced output differs from untraced output"]
        else:
            problems, gap = check(op, rc, stdout, with_gap=trace)
            gaps.append(gap)
        if problems:
            failures.append({"args": list(op.args), "scenario": op.scenario, "problems": problems})

    timed = [r for r in runs[1:] if not r[4]]
    times = [r[2] for r in timed]
    tail_s, tail_pct, beyond = tail(times)
    result = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "loop": "closed, 1 client",
        "ops_timed": len(times),
        "attempted": len(runs),
        "failed": len(failures),
        "failed_frac": len(failures) / len(runs),
        "tail": {"percentile": tail_pct, "samples": len(times), "beyond": beyond},
        "failures": failures[:20],
    }
    if trace:
        traced_times = [r[2] for r in runs if r[4]]
        metrics = layer_metrics(tracer.spans, len(traced_times))
        metrics["scenario.nodes"] = statistics.mean(op.scenario["h4"] + op.scenario["h3"] + op.scenario["h12"]
                                                    for op, *_ in timed)
        metrics["dimensioning.grooming_oracle_gap"] = statistics.mean(abs(g) for g in gaps)
        metrics["cli.output_bytes"] = statistics.mean(len(r[3].encode()) for r in timed)
        metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1
        result["metrics"] = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())}
        tracer.dump(OUT / f"{name}-seed{seed}-spans.jsonl")
    else:
        metrics = {
            "plan_s.p50": statistics.median(times),
            "plan_s.tail": tail_s,
            "plans_per_s": len(times) / phase_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1 - result["failed_frac"],
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}: {result['why']}")
    print(f"  seed {result['seed']}, {result['ops_timed']} ops timed in {result['seconds']:g} s, "
          f"{result['loop']}, trace {result['trace']}")
    print(f"  python {env['python']}, {env['cpu']}, nproc {env['nproc']}, git {env['git_sha'][:12]}")
    for name, m in result["metrics"].items():
        print(f"  {name:36} {m['value']:14.6g} {m['unit']}")
    t = result["tail"]
    print(f"  plan_s.tail is p{t['percentile']} of {t['samples']} ops ({t['beyond']} beyond it)")
    print(f"  {'failed_frac':36} {result['failed_frac']:14.6g} ratio ({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"][:3]:
        print(f"  FAILED {failure['args']} {failure['scenario']}: {failure['problems'][:3]}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbplan" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: no mbplan sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_report(result)
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if len(results) == 1 else f"{r['workload']}:{k}"): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
