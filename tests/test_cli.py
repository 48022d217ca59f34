import csv
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbplan import cli
from mbplan.cli import MAX_SWEEP_POINTS, _parse_vary, main
from mbplan.costing import CostModel, cost
from mbplan.dimensioning import ArchitectureKind, dimension
from mbplan.report import build_comparison
from mbplan.scenario import _MAX_H4, NetworkScenario, ScenarioError, generate_topology, load_scenario, to_dict
from mbplan.spectrum import _MAX_BAND_CHANNELS, Band, SpectrumPlan, default_spectrum_plan
from strategies import cost_documents, plan_documents, scenario_documents

DATA = Path(__file__).resolve().parent.parent / "data"
BENCHMARK = str(DATA / "large_man.json")
RING = str(DATA / "ring_overload.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- dimension ---------------------------------------------------------------

def test_dimension_continuum_table(capsys):
    code, out, err = run(capsys, "dimension", BENCHMARK, "--arch", "continuum")
    assert code == 0 and err == ""
    assert "total  400" in out


def test_dimension_ptmp_worked_example(capsys):
    code, out, _ = run(capsys, "dimension", BENCHMARK, "--arch", "ptmp",
                       "--ptmp-count-mode", "worked-example")
    assert code == 0
    assert "total  350" in out


def test_dimension_json(capsys):
    code, out, _ = run(capsys, "dimension", BENCHMARK, "--arch", "grooming", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_level"] == {"HL4": 200, "HL3": 280, "HL12": 80}
    assert doc["total"] == 560


def test_dimension_csv(capsys):
    code, out, _ = run(capsys, "dimension", BENCHMARK, "--arch", "ptmp", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["total"] == "350"
    assert rows[0]["ptmp_count_mode"] == "worked-example"


def test_dimension_approximate(capsys):
    code, out, _ = run(capsys, "dimension", BENCHMARK, "--arch", "grooming",
                       "--mode", "approximate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(300.0)
    assert doc["per_level"] == {}


def test_missing_scenario_file_names_path(capsys):
    code, out, err = run(capsys, "dimension", "no/such/file.json", "--arch", "continuum")
    assert code == 2
    assert "no/such/file.json" in err


SCENARIO_DOC = {"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 100, "eta": 0.5}
BAND_DOC = {"name": "C", "lambda_min_nm": 1530, "lambda_max_nm": 1565, "channel_count_declared": 80}


def _scenario_file(field):
    return {**SCENARIO_DOC, field: "@"}, ("dimension", "{file}", "--arch", "continuum")


def _plan_file(field):
    return {"mode": "computed", "bands": [BAND_DOC], field: "@"}, ("spectrum-check", RING, "--plan", "{file}")


def _band_file(field):
    return {"bands": [{**BAND_DOC, field: "@"}]}, ("spectrum-check", RING, "--plan", "{file}")


def _cost_file(field):
    return {field: "@"}, ("compare", RING, "--costs", "{file}")


BAD_FIELDS = [
    (_scenario_file, "h4"), (_scenario_file, "eta"), (_scenario_file, "a4_gbps"),
    (_scenario_file, "channel_rate_gbps"), (_scenario_file, "link_length_km"),
    (_plan_file, "grid_spacing_ghz"),
    (_band_file, "lambda_min_nm"), (_band_file, "reach_limit_km"), (_band_file, "channel_count_declared"),
    (_cost_file, "transponder_cu"), (_cost_file, "routers_per_hl3"),
]
BAD_VALUES = {"string": '"x"', "bool": "true", "list": "[1]", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
              "duplicate": '1, "{field}": 1'}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("kind, field", BAD_FIELDS, ids=[f"{k.__name__[1:-5]}-{f}" for k, f in BAD_FIELDS])
def test_bad_input_value_exits_two_naming_the_field(capsys, tmp_path, kind, field, value):
    doc, argv = kind(field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@"', value.format(field=field)))
    code, out, err = run(capsys, *(a.format(file=bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err and str(bad) in err
    if kind is _band_file:
        assert "band #0: " in err


@pytest.mark.parametrize("index", [0, 1])
def test_band_constructor_error_names_the_entry(capsys, tmp_path, index):
    # two bands of one name: only the entry's index tells which one fails Band's own check
    bands = [dict(BAND_DOC), dict(BAND_DOC)]
    bands[index]["channel_count_declared"] = -1
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"bands": bands}))
    code, out, err = run(capsys, "spectrum-check", RING, "--plan", str(plan))
    assert (code, out) == (2, "")
    assert err == f"error: {plan}: band #{index}: band C: channel_count_declared must be an integer >= 0, got -1\n"


BIG_MAN = {"h4": 200, "h3": 40, "h12": 5, "a4_gbps": 300, "eta": 0.5}
OVERSIZED = {
    "h4": ({**SCENARIO_DOC, "h4": 1e12}, ("dimension", "{file}", "--arch", "continuum"), "h4"),
    "grid_spacing_ghz": ({"mode": "computed", "grid_spacing_ghz": 1e-300, "bands": [BAND_DOC]},
                         ("spectrum-check", RING, "--plan", "{file}"), "grid_spacing_ghz"),
    "a4_gbps-ptmp": ({**SCENARIO_DOC, "a4_gbps": 1e308}, ("dimension", "{file}", "--arch", "ptmp"), "a4_gbps"),
    "a4_gbps-compare": ({**SCENARIO_DOC, "a4_gbps": 1e308}, ("compare", "{file}"), "a4_gbps"),
    "channel_rate_gbps": ({**SCENARIO_DOC, "channel_rate_gbps": 5e-324},
                          ("dimension", "{file}", "--arch", "ptmp", "--mode", "approximate"), "channel_rate_gbps"),
    "fanout_m": ({**SCENARIO_DOC, "fanout_m": 10**400}, ("compare", "{file}", "--ptmp-count-mode", "formula"),
                 "fanout_m"),
    "a4_gbps-sweep": ({**BIG_MAN, "a4_gbps": 1e308, "eta": 1},
                      ("sweep", "{file}", "--arch", "grooming", "--vary", "eta=0:1:0.5"), "a4_gbps"),
    # each HL4 fits the per-HL4 cap, the demand list of 50 does not
    "a4_gbps-demands": ({**SCENARIO_DOC, "h4": 50, "a4_gbps": 1e6, "channel_rate_gbps": 1},
                        ("spectrum-check", "{file}"), "a4_gbps"),
    "routers_per_hl3": ({"routers_per_hl3": 10**400}, ("compare", BENCHMARK, "--costs", "{file}"), "routers_per_hl3"),
    "transponder_cu-compare": ({"transponder_cu": 1e308}, ("compare", BENCHMARK, "--costs", "{file}", "--format", "json"),
                               "transponder_cu"),
    "transponder_cu-sweep": ({"transponder_cu": 1e308},
                             ("sweep", BENCHMARK, "--costs", "{file}", "--vary", "a4_gbps=0:100:100"), "transponder_cu"),
}


@pytest.mark.parametrize("doc, argv, field", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_input_exits_two_naming_the_field(capsys, tmp_path, doc, argv, field):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(file=bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and field in err


def test_unknown_arch_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dimension", BENCHMARK, "--arch", "mesh"])
    assert excinfo.value.code == 2


# --- compare -----------------------------------------------------------------

def test_compare_benchmark_table(capsys):
    code, out, _ = run(capsys, "compare", BENCHMARK)
    assert code == 0
    for fragment in ("560", "400", "350", "28.57%", "9280.00", "4800.00", "4200.00"):
        assert fragment in out
    assert "footnotes:" in out
    assert "7728" in out  # the discrepancy note about the non-reproducible figure
    # continuum feasible under C-band alone
    continuum_rows = [l for l in out.splitlines() if l.startswith("continuum") and "C-only" in l]
    assert continuum_rows and "yes" in continuum_rows[0]


def test_compare_no_footnotes(capsys):
    code, out, _ = run(capsys, "compare", BENCHMARK, "--no-footnotes")
    assert code == 0
    assert "7728" not in out


def test_compare_json_round_trips(capsys):
    code, out, _ = run(capsys, "compare", BENCHMARK, "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    expected = build_comparison(load_scenario(BENCHMARK), default_spectrum_plan(), CostModel())
    assert parsed == to_dict(expected)


def test_compare_zero_traffic(capsys, tmp_path):
    quiet = tmp_path / "quiet.json"
    quiet.write_text('{"h4": 8, "h3": 2, "h12": 1, "a4_gbps": 0, "eta": 0.5}')
    code, out, _ = run(capsys, "compare", str(quiet))
    assert code == 0
    assert "0.00%" in out


def test_compare_ring_overload_marks_infeasible(capsys):
    code, out, _ = run(capsys, "compare", RING)
    assert code == 0
    lines = out.splitlines()
    c_only = next(l for l in lines if l.startswith("continuum") and "C-only" in l)
    full = next(l for l in lines if l.startswith("continuum") and "full plan" in l)
    assert "NO" in c_only
    assert "yes" in full


def test_compare_with_cost_file(capsys, tmp_path):
    costs = tmp_path / "costs.json"
    costs.write_text('{"transponder_cu": 24}')
    code, out, _ = run(capsys, "compare", BENCHMARK, "--costs", str(costs))
    assert code == 0
    assert "9600.00" in out  # continuum 400 x 24


def test_compare_with_plan_lacking_c_band(capsys, tmp_path):
    plan = tmp_path / "l_only.json"
    plan.write_text(json.dumps({
        "mode": "declared",
        "bands": [{"name": "L", "lambda_min_nm": 1565, "lambda_max_nm": 1625,
                   "reach_limit_km": None, "channel_count_declared": 118}],
    }))
    code, out, _ = run(capsys, "compare", BENCHMARK, "--plan", str(plan))
    assert code == 0
    assert "C-only" not in out
    assert "full plan" in out  # continuum 400 x 24


# --- sweep -------------------------------------------------------------------

def test_sweep_eta_grooming(capsys):
    code, out, _ = run(capsys, "sweep", BENCHMARK, "--vary", "eta=0:1:0.5", "--arch", "grooming")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["0", "0.5", "1"]
    assert [r["grooming_total"] for r in rows] == ["400", "560", "720"]


def test_sweep_traffic_continuum_flat(capsys):
    code, out, _ = run(capsys, "sweep", BENCHMARK, "--vary", "a4_gbps=100:400:100",
                       "--arch", "continuum")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["continuum_total"] == "400" for r in rows)


def test_single_point_sweep_matches_dimension(capsys):
    code, out, _ = run(capsys, "sweep", BENCHMARK, "--vary", "eta=0.5:0.5:1", "--arch", "grooming")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["grooming_total"] == "560"


@pytest.mark.parametrize("kind", ["tree", "ring"])
@pytest.mark.parametrize("vary", ["h4=23:41:6", "eta=0:1:0.25"])
def test_sweep_rows_match_dimension_on_each_point(capsys, tmp_path, kind, vary):
    # h4 is never a multiple of h3, and each h4 point has its own children per hub
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"h4": 23, "h3": 6, "h12": 4, "a4_gbps": 500.0, "eta": 0.5, "topology_kind": kind}))
    code, out, _ = run(capsys, "sweep", str(path), "--vary", vary)
    assert code == 0
    field, values = _parse_vary(vary)
    expected = [["field", "value", *(f"{arch.value}_{col}" for arch in ArchitectureKind
                                     for col in ("total", "capex_cu"))]]
    for value in values:
        point = replace(load_scenario(path), **{field: value})
        row = [field, cli._num(value)]
        for arch in ArchitectureKind:
            result = dimension(point, arch, topology=generate_topology(point))
            row += [str(int(result.total)), cli._cu(cost(result, CostModel(), point).total_cu)]
        expected.append(row)
    assert list(csv.reader(io.StringIO(out))) == expected


def test_sweep_all_architectures_header(capsys):
    code, out, _ = run(capsys, "sweep", BENCHMARK, "--vary", "h4=200:210:5")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["field", "value",
                      "grooming_total", "grooming_capex_cu",
                      "continuum_total", "continuum_capex_cu",
                      "ptmp_total", "ptmp_capex_cu"]
    assert len(out.splitlines()) == 4  # header + 200,205,210


@pytest.mark.parametrize(
    "vary",
    ["eta=0:1:zero", "eta=0:1:0", "eta=1:0:0.5", "volume=0:1:0.5", "eta=0-1-0.5", "h4=10:20:2.5"],
)
def test_sweep_bad_specs_exit_two(capsys, vary):
    code, _, err = run(capsys, "sweep", BENCHMARK, "--vary", vary)
    assert code == 2
    assert err.startswith("error:")


# the last two have valid first points: nothing may be printed before the bad one
@pytest.mark.parametrize("vary", ["a4_gbps=0:inf:1", "eta=0:nan:1", "eta=-inf:1:0.5", "h4=1:2:inf",
                                  "eta=0.5:1.5:0.5", "h4=99990:100010:10"])
def test_sweep_non_finite_range_exits_two(capsys, vary):
    code, out, err = run(capsys, "sweep", BENCHMARK, "--vary", vary)
    assert code == 2 and out == ""
    assert err.startswith("error:") and vary.partition("=")[0] in err


@pytest.fixture
def bounded_range(monkeypatch):
    """Fail instead of allocating if the cap ever stops guarding the point list."""

    def guarded(*args):
        points = range(*args)
        assert len(points) <= MAX_SWEEP_POINTS
        return points

    monkeypatch.setattr(cli, "range", guarded, raising=False)


# the cap is tested through _parse_vary, never by running a sweep
@pytest.mark.parametrize("vary", ["eta=0:1:1e-300", "eta=0:1:5e-324", "a4_gbps=-1e308:1e308:1",
                                  f"h4=1:{MAX_SWEEP_POINTS + 1}:1"])
def test_sweep_point_cap(bounded_range, vary):
    with pytest.raises(ScenarioError, match=f"{vary.partition('=')[0]} sweep has more than"):
        _parse_vary(vary)


def test_sweep_point_cap_is_inclusive(bounded_range):
    field, values = _parse_vary(f"h4=1:{MAX_SWEEP_POINTS}:1")
    assert field == "h4" and len(values) == MAX_SWEEP_POINTS


# --- spectrum-check ----------------------------------------------------------

def test_spectrum_check_ring_c_only(capsys):
    code, out, _ = run(capsys, "spectrum-check", RING, "--bands", "C")
    assert code == 0
    assert "feasible: NO" in out
    assert "blocked channels: 20" in out


def test_spectrum_check_full_plan_json(capsys):
    code, out, _ = run(capsys, "spectrum-check", RING, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["blocked_count"] == 0
    assert doc["peak_link_occupancy"] == 100


def test_spectrum_check_benchmark(capsys):
    code, out, _ = run(capsys, "spectrum-check", BENCHMARK, "--bands", "C", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["peak_link_occupancy"] == 5


def test_spectrum_check_unknown_band(capsys):
    code, _, err = run(capsys, "spectrum-check", RING, "--bands", "C,Q")
    assert code == 2
    assert "Q" in err


# --- cross-command determinism -------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["compare", BENCHMARK],
        ["dimension", BENCHMARK, "--arch", "ptmp", "--format", "csv"],
        ["sweep", BENCHMARK, "--vary", "a4_gbps=100:400:100"],
        ["spectrum-check", RING, "--bands", "C", "--format", "json"],
    ],
)
def test_commands_are_deterministic(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# --- any input file ------------------------------------------------------------

def _names(*classes):
    return {f.name for cls in classes for f in fields(cls)} | {"bogus"}


#: what an error may name as the field at fault; "band #i" names an entry of ``bands``
FILE_FIELDS = {"scenario": _names(NetworkScenario), "plan": _names(SpectrumPlan, Band) | {"band #"},
               "costs": _names(CostModel)}
ARCHS = st.sampled_from(["grooming", "continuum", "ptmp"])
COUNT_MODES = st.sampled_from(["worked-example", "formula"])


@st.composite
def cli_runs(draw):
    """A subcommand, its flags, and the documents of the input files it reads (a plan or
    cost file left out means the built-in default)."""
    command = draw(st.sampled_from(["dimension", "compare", "sweep", "spectrum-check"]))
    docs = {"scenario": draw(scenario_documents(max_h4=50, h4_cap=_MAX_H4)),
            "plan": draw(st.none() | plan_documents(band_cap=_MAX_BAND_CHANNELS)),
            "costs": draw(st.none() | cost_documents())}
    if command == "dimension":
        flags = ["--arch", draw(ARCHS), "--mode", draw(st.sampled_from(["exact", "approximate"])),
                 "--format", draw(st.sampled_from(["table", "csv", "json"]))]
    elif command == "sweep":
        # every point of these ranges is sound whenever the scenario is
        flags = ["--vary", draw(st.sampled_from(["eta=0:1:0.5", "a4_gbps=0:800:400", "fanout_m=1:3:1", "h4=50:52:1"]))]
    else:
        flags = ["--format", draw(st.sampled_from(["table", "json"]))]
        flags += ["--arch", draw(ARCHS)] if command == "spectrum-check" else []
    if command != "spectrum-check":
        flags += ["--ptmp-count-mode", draw(COUNT_MODES)]
    reads = {"dimension": (), "compare": ("plan", "costs"), "sweep": ("costs",), "spectrum-check": ("plan",)}[command]
    docs = {kind: doc for kind, doc in docs.items() if kind == "scenario" or kind in reads and doc is not None}
    return command, flags, docs


COMPARE_JSON = ["--format", "json", "--ptmp-count-mode", "worked-example"]


@settings(max_examples=200, deadline=None)
@given(run=cli_runs())
@example(run=("compare", COMPARE_JSON, {"scenario": {**SCENARIO_DOC, "a4_gbps": 1e308}}))
@example(run=("compare", COMPARE_JSON, {"scenario": SCENARIO_DOC, "costs": {"transponder_cu": 1e308}}))
@example(run=("compare", COMPARE_JSON, {"scenario": SCENARIO_DOC, "costs": {"transponder_cu": 5e-324, "routers_per_hl3": 0}}))
def test_any_input_exits_zero_or_two(tmp_path_factory, run):
    command, flags, docs = run
    folder = tmp_path_factory.mktemp("inputs")
    paths = {kind: folder / f"{kind}.json" for kind in docs}
    for kind, doc in docs.items():
        paths[kind].write_text(json.dumps(doc))
    argv = [command, str(paths["scenario"]), *flags]
    for kind in ("plan", "costs"):
        argv += [f"--{kind}", str(paths[kind])] if kind in paths else []
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        at_fault = [kind for kind, path in paths.items() if err.startswith(f"error: {path}: ")]
        assert at_fault, err
        assert any(name in err for name in FILE_FIELDS[at_fault[0]]), err
    else:
        assert not re.search(r"\b(inf|infinity|nan)\b", out, re.IGNORECASE), out
