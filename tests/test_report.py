import json

import pytest
from hypothesis import assume, given, settings

from mbplan import report as report_module
from mbplan.costing import CostModel
from mbplan.dimensioning import ArchitectureKind, PtmpCountMode
from mbplan.report import DISCREPANCY_FOOTNOTES, build_comparison
from mbplan.scenario import generate_topology, to_dict
from mbplan.spectrum import Band, SpectrumPlan, assign_spectrum, feasibility_report, restrict_plan
from strategies import c_first_plans, scenarios


def test_report_covers_all_architectures(benchmark_scenario):
    report = build_comparison(benchmark_scenario)
    assert set(report.results) == set(ArchitectureKind)
    assert set(report.spectrum) == {ArchitectureKind.CONTINUUM, ArchitectureKind.PTMP}
    assert report.footnotes == DISCREPANCY_FOOTNOTES
    assert report.results[ArchitectureKind.PTMP].ptmp_count_mode is PtmpCountMode.WORKED_EXAMPLE


def test_report_dict_is_json_native(benchmark_scenario):
    doc = to_dict(build_comparison(benchmark_scenario))
    assert json.loads(json.dumps(doc)) == doc
    assert doc["results"]["continuum"]["total"] == 400
    assert doc["costs"]["costs"]["grooming"]["total_cu"] == 9280.0


def test_plan_without_c_band_skips_the_c_only_column(benchmark_scenario):
    l_only = SpectrumPlan(bands=(Band("L", 1565.0, 1625.0, channel_count_declared=118),))
    report = build_comparison(benchmark_scenario, plan=l_only, cost_model=CostModel())
    summary = report.spectrum[ArchitectureKind.CONTINUUM]
    assert summary.c_band_only is None
    assert summary.full_plan.feasible
    assert to_dict(report)["spectrum"]["continuum"]["c_band_only"] is None


def test_footnotes_flag_the_known_discrepancies():
    joined = " ".join(DISCREPANCY_FOOTNOTES)
    for marker in ("7728", "9280", "(1 + 2*eta)", "worked-example", "100 GHz"):
        assert marker in joined


# --- one RSA per comparison ---------------------------------------------------

@settings(max_examples=200)
@given(scenarios(), c_first_plans())
def test_c_only_report_read_off_the_full_run_equals_a_c_only_run(s, plan):
    assume(s.h4 % s.h3)
    topology = generate_topology(s)
    report = build_comparison(s, plan=plan, topology=topology)
    c_only = restrict_plan(plan, ["C"])
    for arch in (ArchitectureKind.CONTINUUM, ArchitectureKind.PTMP):
        summary = report.spectrum[arch]
        assert summary.c_band_only == feasibility_report(c_only, topology, arch, s)
        assert summary.full_plan == feasibility_report(plan, topology, arch, s)


@pytest.mark.parametrize(
    "order, expected",
    [(("C", "L", "S", "E", "O"), 1), (("L", "C", "S", "E", "O"), 2), (("L", "S", "E", "O"), 1)],
    ids=["c-first", "c-not-first", "no-c"],
)
def test_rsa_call_count(benchmark_scenario, default_plan, monkeypatch, order, expected):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return assign_spectrum(*args, **kwargs)

    monkeypatch.setattr(report_module, "assign_spectrum", counted)
    plan = SpectrumPlan(bands=tuple(default_plan.band(name) for name in order))
    report = build_comparison(benchmark_scenario, plan=plan)
    assert len(calls) == expected
    assert (report.spectrum[ArchitectureKind.CONTINUUM].c_band_only is None) == ("C" not in order)
