"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json

import mbplan.cli as cli
import pytest

import run
from checks import check
from spans import Span, Tracer, install, layer_metrics, outermost, self_seconds, uninstall
from workloads import WORKLOADS, Op, make_op, write_scenario

SMALL = {"h4": 53, "h3": 7, "h12": 2, "a4_gbps": 700, "eta": 0.45, "topology_kind": "ring"}
SMALL_OPS = (
    Op(SMALL, ("compare", "--format", "json")),
    Op(SMALL, ("spectrum-check", "--format", "json")),
    Op(SMALL, ("sweep", "--vary", "h4=53:91:2")),
    Op(SMALL, ("sweep", "--vary", "eta=0:0.95:0.05")),
)


def _run(op: Op, tmp_path) -> str:
    rc, _, stdout = run.run_op(cli, op.argv(write_scenario(op, tmp_path, 0)))
    assert rc == 0
    return stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = [make_op(workload, 7, i) for i in range(5)]
    assert first == [make_op(workload, 7, i) for i in range(5)]
    assert first != [make_op(workload, 8, i) for i in range(5)]
    assert len({json.dumps(op.scenario, sort_keys=True) for op in first}) == 5
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert (open(write_scenario(first[0], a, 0)).read()
            == open(write_scenario(make_op(workload, 7, 0), b, 0)).read())


def test_generated_shapes_include_h4_not_divisible_by_h3():
    ops = [make_op(w, 3, i) for w in WORKLOADS for i in range(10)]
    assert any(op.scenario["h4"] % op.scenario["h3"] for op in ops)


@pytest.mark.parametrize("op", SMALL_OPS, ids=lambda op: " ".join(op.args))
def test_untampered_output_passes(op, tmp_path):
    assert check(op, 0, _run(op, tmp_path)) == ([], 0)


def _tamper_compare(doc):
    doc["results"]["ptmp"]["per_level"]["HL12"] += 1


def _tamper_feasible(doc):
    doc["spectrum"]["continuum"]["full_plan"]["feasible"] = not doc["spectrum"]["continuum"]["full_plan"]["feasible"]


def _tamper_blocked(doc):
    doc["spectrum"]["ptmp"]["c_band_only"]["blocked_count"] += 1


@pytest.mark.parametrize("tamper", (_tamper_compare, _tamper_feasible, _tamper_blocked))
def test_tampered_compare_output_fails(tamper, tmp_path):
    op = SMALL_OPS[0]
    doc = json.loads(_run(op, tmp_path))
    tamper(doc)
    problems, _ = check(op, 0, json.dumps(doc))
    assert problems


def test_tampered_sweep_row_fails(tmp_path):
    op = SMALL_OPS[2]
    lines = _run(op, tmp_path).splitlines()
    cells = lines[5].split(",")
    cells[-1] = f"{float(cells[-1]) + 12:.2f}"
    lines[5] = ",".join(cells)
    problems, _ = check(op, 0, "\n".join(lines) + "\n")
    assert len(problems) == 1 and "h4=" in problems[0]


def test_failed_exit_and_garbage_fail():
    op = SMALL_OPS[1]
    assert check(op, 2, "")[0]
    assert check(op, 0, "not json")[0]


def test_tampered_output_is_counted_as_failed(monkeypatch):
    def tampered_main(argv):
        print("field,value")
        return 0

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(cli, "main", tampered_main)
    result = run.run_workload("sweep_dims", seed=5, seconds=0.05, trace=False)
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["ok_frac"]["value"] == 0


def _span(sid, parent, name, start, end):
    return Span(op=1, id=sid, parent=parent, name=name, start_ns=start, end_ns=end)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, "cli.main", 0, 100_000),
        _span(1, 0, "report.build_comparison", 10_000, 90_000),
        _span(2, 1, "spectrum.feasibility_report", 20_000, 60_000),
        _span(3, 2, "spectrum.assign_spectrum", 25_000, 55_000),
        _span(4, 1, "scenario.generate_topology", 65_000, 75_000),
    ]
    own = self_seconds(spans)
    assert own == pytest.approx({0: 20e-6, 1: 30e-6, 2: 10e-6, 3: 30e-6, 4: 10e-6})
    assert sum(own.values()) == pytest.approx(100e-6)

    metrics = layer_metrics(spans, ops=1)
    assert metrics["cli.main_s"] == pytest.approx(100e-6)
    assert metrics["cli.self_s"] == pytest.approx(20e-6)
    assert metrics["report.build_s"] == pytest.approx(80e-6)
    assert metrics["report.self_s"] == pytest.approx(30e-6)
    assert metrics["spectrum.rsa_s"] == pytest.approx(30e-6)
    assert metrics["spectrum.feasibility_self_s"] == pytest.approx(10e-6)
    assert metrics["scenario.topology_calls"] == 1


def test_outermost_skips_spans_nested_in_a_match():
    spans = [
        _span(0, None, "dimensioning.dimension", 0, 50),
        _span(1, 0, "scenario.validate", 1, 2),
        _span(2, 1, "dimensioning.channels_needed", 3, 4),
        _span(3, None, "dimensioning.channels_needed", 60, 70),
    ]
    assert [s.id for s in outermost(spans, lambda s: s.layer == "dimensioning")] == [0, 3]


def test_tracing_counts_rsa_calls_and_restores_the_package(tmp_path):
    op = SMALL_OPS[0]
    path = write_scenario(op, tmp_path, 0)
    original = cli.main
    tracer = Tracer()
    patches = install(tracer)
    try:
        _, _, traced_out = run.run_op(cli, op.argv(path))
    finally:
        uninstall(patches)
    assert cli.main is original
    assert traced_out == _run(op, tmp_path)
    metrics = layer_metrics(tracer.spans, ops=1)
    assert metrics["spectrum.rsa_calls"] == 4
    assert metrics["scenario.topology_calls"] == 1
    assert metrics["spectrum.channels_requested"] == 4 * 2 * SMALL["h4"]
