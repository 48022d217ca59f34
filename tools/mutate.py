"""Mutation runner: apply one small change at a time to a module and see whether its tests notice.

    python tools/mutate.py src/mbplan/costing.py --tests tests/test_costing.py

Each mutant swaps one operator (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not``, ``in``/``not in``, ``+``/``-``, ``&``/``|``,
``and``/``or``), turns ``*`` into ``//`` or ``/`` into ``*``, or adds 1 to an
int constant. Type annotations are not mutated. The mutant is written with
``ast.unparse`` into a temporary copy of the project, never in place, and the
given tests run there under ``pytest -x`` with a fixed hypothesis seed and a
per-mutant timeout. A mutant survives when the tests pass.

``tools/equivalent_mutants.txt`` lists the survivors judged equivalent, one
per line as ``module :: change :: source line``; the line is the stripped
source text, not its number, so entries survive edits elsewhere. Only the
survivors not in that ledger are printed, each after its ``path:line:``, and
the exit status is 1 if there are any. Stdlib only; not part of the tier-1
tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "equivalent_mutants.txt"
#: what the tests read besides themselves
COPIED = ("src", "tests", "data", "pyproject.toml", "README.md")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Mult: ast.FloorDiv, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is",
    ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.BitAnd: "&",
    ast.BitOr: "|", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/", ast.And: "and", ast.Or: "or",
}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """Ids of every node inside a type annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            roots.append(node.returns)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def sites(tree: ast.AST) -> list[tuple[int, int]]:
    """``(node index in ast.walk order, operator index)`` of every mutation; -1 marks an int constant."""
    skip = _annotation_nodes(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            found += [(index, j) for j in range(len(node.ops))]
        elif isinstance(node, ast.BinOp | ast.AugAssign | ast.BoolOp) and type(node.op) in SWAPS:
            found.append((index, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, -1))
    return found


def mutate(source: str, site: tuple[int, int]) -> tuple[str, int, str]:
    """The mutant's source, the mutated line number and a label such as ``< -> <=``."""
    index, j = site
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    if j == -1:
        label = f"{node.value} -> {node.value + 1}"
        node.value += 1
    elif isinstance(node, ast.Compare):
        old = type(node.ops[j])
        node.ops[j] = SWAPS[old]()
        label = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
        label = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    return ast.unparse(tree), node.lineno, label


def run_tests(workdir: Path, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass in ``workdir``; a run past the timeout counts as a failure."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the project root")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run, relative to the project root")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant's test run")
    args = parser.parse_args(argv)
    module = Path(args.module).as_posix()
    source = (ROOT / module).read_text(encoding="utf-8")
    lines = source.splitlines()
    ledger = set()
    for entry in LEDGER.read_text(encoding="utf-8").splitlines():
        if entry.strip() and not entry.startswith("#"):
            ledger.add(tuple(part.strip() for part in entry.split(" :: ", 2)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            (shutil.copytree if (ROOT / name).is_dir() else shutil.copy)(ROOT / name, work / name)
        if not run_tests(work, args.tests, args.timeout):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        found = sites(ast.parse(source))
        survivors = known = 0
        for site in found:
            mutant, lineno, label = mutate(source, site)
            (work / module).write_text(mutant, encoding="utf-8")
            if run_tests(work, args.tests, args.timeout):
                survivors += 1
                entry = (Path(module).name, label, lines[lineno - 1].strip())
                if entry in ledger:
                    known += 1
                else:
                    print(f"{module}:{lineno}: {' :: '.join(entry)}", flush=True)
    print(f"{len(found)} mutants, {len(found) - survivors} killed, {survivors} survived "
          f"({known} in {LEDGER.name})")
    return 1 if survivors > known else 0


if __name__ == "__main__":
    sys.exit(main())
