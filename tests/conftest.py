import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mbplan.scenario import HierarchyLevel, Link, Node, PhysicalTopology, generate_topology, load_scenario  # noqa: E402
from mbplan.spectrum import default_spectrum_plan, restrict_plan  # noqa: E402


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return ROOT / "data"


@pytest.fixture(scope="session")
def benchmark_scenario(data_dir):
    """The bundled large-MAN benchmark: 200/40/5 nodes, 300G, eta=0.5."""
    return load_scenario(data_dir / "large_man.json")


@pytest.fixture(scope="session")
def benchmark_topology(benchmark_scenario):
    return generate_topology(benchmark_scenario)


@pytest.fixture(scope="session")
def out_of_order_topology():
    """Hand-made graph: HL3s listed out of id order, HL4s out of HL3 order, links out of node order.

    hl3-0 hangs off hl12-0 and hl3-1 off hl3-0; hl4-0 and hl4-2 hang off
    hl3-0, hl4-1 off hl3-1.
    """
    hl12, hl3, hl4 = HierarchyLevel.HL12, HierarchyLevel.HL3, HierarchyLevel.HL4
    nodes = (Node("hl12-0", hl12), Node("hl3-1", hl3), Node("hl3-0", hl3),
             Node("hl4-0", hl4), Node("hl4-1", hl4), Node("hl4-2", hl4))
    links = (Link("hl3-0", "hl12-0", 50.0), Link("hl3-1", "hl3-0", 50.0), Link("hl3-0", "hl4-2", 50.0),
             Link("hl4-1", "hl3-1", 50.0), Link("hl4-0", "hl3-0", 50.0))
    return PhysicalTopology(nodes=nodes, links=links)


@pytest.fixture(scope="session")
def ring_overload_scenario(data_dir):
    """Ring fixture that pushes 100 single-channel lightpaths over one link."""
    return load_scenario(data_dir / "ring_overload.json")


@pytest.fixture(scope="session")
def default_plan():
    return default_spectrum_plan()


@pytest.fixture(scope="session")
def c_only_plan(default_plan):
    return restrict_plan(default_plan, ["C"])


# --- acceptance summary: one pass/fail line per criterion -------------------

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[nodeid]
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{mark}  {nodeid.split('::')[-1]}")
