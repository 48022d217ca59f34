"""Golden CLI outputs: every subcommand and format, byte for byte.

Each case in ``CASES`` runs ``mbplan <argv>`` from the repository root and
compares its stdout with ``tests/golden/<name>.txt``. The files were captured
once, before the comparison pipeline stopped repeating RSA runs and topology
walks, by running from the repository root, for every case::

    PYTHONPATH=src python3 -m mbplan <argv> > tests/golden/<name>.txt

There is no regeneration flag: a changed output is a failing test. To add a
case, run the command above for it by hand and commit the new file.

The plan files next to the outputs cover the C-only derivation paths of
``compare``: C after L (``plan_l_first``), no C band (``plan_no_c``) and a
short-reach, three-channel C band that leads the plan (``plan_c_scarce``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mbplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SCENARIOS = {"large_man": "data/large_man.json", "ring_overload": "data/ring_overload.json"}
PLANS = ("plan_l_first", "plan_no_c", "plan_c_scarce")
SWEEPS = {
    "large_man": ("eta=0:1:0.25", "h4=40:200:80", "a4_gbps=0:800:200", "fanout_m=1:8:3"),
    "ring_overload": ("eta=0:1:0.25", "h4=1:201:100", "a4_gbps=0:800:200", "fanout_m=1:8:3"),
}


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for tag, path in SCENARIOS.items():
        for arch in ("grooming", "continuum", "ptmp"):
            count_modes = ("worked-example", "formula") if arch == "ptmp" else (None,)
            for mode in ("exact", "approximate"):
                for count_mode in count_modes:
                    for fmt in ("table", "csv", "json"):
                        argv = ["dimension", path, "--arch", arch, "--mode", mode, "--format", fmt]
                        name = f"{tag}-dimension-{arch}-{mode}"
                        if count_mode:
                            argv += ["--ptmp-count-mode", count_mode]
                            name += f"-{count_mode}"
                        cases.append((f"{name}-{fmt}", argv))
        for fmt in ("table", "json"):
            argv = ["compare", path, "--format", fmt]
            cases.append((f"{tag}-compare-{fmt}", argv))
            cases.append((f"{tag}-compare-{fmt}-no-footnotes", argv + ["--no-footnotes"]))
            for plan in PLANS:
                cases.append((f"{tag}-compare-{fmt}-{plan}",
                              argv + ["--no-footnotes", "--plan", f"tests/golden/{plan}.json"]))
        cases.append((f"{tag}-compare-table-formula",
                      ["compare", path, "--ptmp-count-mode", "formula", "--no-footnotes"]))
        for vary in SWEEPS[tag]:
            cases.append((f"{tag}-sweep-{vary.split('=')[0]}", ["sweep", path, "--vary", vary]))
        cases.append((f"{tag}-sweep-eta-formula",
                      ["sweep", path, "--vary", "eta=0:1:0.5", "--arch", "ptmp,grooming",
                       "--ptmp-count-mode", "formula"]))
        for arch in ("grooming", "continuum", "ptmp"):
            for fmt in ("table", "json"):
                argv = ["spectrum-check", path, "--arch", arch, "--format", fmt]
                cases.append((f"{tag}-spectrum-{arch}-{fmt}", argv))
        for fmt in ("table", "json"):
            argv = ["spectrum-check", path, "--format", fmt]
            cases.append((f"{tag}-spectrum-bands-c-{fmt}", argv + ["--bands", "C"]))
        cases.append((f"{tag}-spectrum-scarce-c",
                      ["spectrum-check", path, "--plan", "tests/golden/plan_c_scarce.json"]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    names = {name for name, _ in CASES}
    stored = {p.stem for p in GOLDEN.glob("*.txt")}
    assert stored == names
