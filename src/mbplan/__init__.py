"""Multi-band metro transport planning: dimensioning, spectrum, CAPEX."""

from .costing import ArchitectureCost, CostModel, CostReport, Savings, compare, cost
from .dimensioning import (
    ArchitectureKind,
    DimensioningResult,
    Mode,
    PtmpCountMode,
    dimension,
)
from .report import ComparisonReport, build_comparison
from .scenario import (
    HierarchyLevel,
    NetworkScenario,
    PhysicalTopology,
    ScenarioError,
    TopologyKind,
    generate_topology,
    load_scenario,
    scenario_from_json,
    to_dict,
)
from .spectrum import (
    Band,
    Demand,
    FeasibilityReport,
    Lightpath,
    PlanMode,
    SpectrumPlan,
    assign_spectrum,
    band_width_thz,
    channel_count,
    default_spectrum_plan,
    demands_for,
    feasibility_report,
    load_spectrum_plan,
    total_channels,
    width_thz,
)

__version__ = "0.1.0"
