import csv
import io
import json
from pathlib import Path

import pytest

from mbplan import cli
from mbplan.cli import MAX_SWEEP_POINTS, _parse_vary, main
from mbplan.costing import CostModel
from mbplan.report import build_comparison
from mbplan.scenario import ScenarioError, load_scenario, to_dict
from mbplan.spectrum import default_spectrum_plan

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


@pytest.mark.parametrize("doc, argv, field", [
    ({**SCENARIO_DOC, "h4": 1e12}, ("dimension", "{file}", "--arch", "continuum"), "h4"),
    ({"mode": "computed", "grid_spacing_ghz": 1e-300, "bands": [BAND_DOC]},
     ("spectrum-check", RING, "--plan", "{file}"), "grid_spacing_ghz"),
], ids=["h4", "grid_spacing_ghz"])
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


@pytest.mark.parametrize("vary", ["a4_gbps=0:inf:1", "eta=0:nan:1", "eta=-inf:1:0.5", "h4=1:2:inf"])
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
