"""CAPEX in normalized cost units and pairwise architecture savings.

Transceiver CAPEX = exact transceiver count x unit price (PtMP modules have
their own price, defaulting to the point-to-point transponder price).
Grooming additionally pays for the HL3 IP routers; the bypass architectures
do not. Savings of B against baseline A = (cost_A - cost_B) / cost_A * 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .dimensioning import ArchitectureKind, DimensioningResult, Mode
from .scenario import NetworkScenario, read_record


class CostingError(ValueError):
    """Raised for unusable cost inputs (approximate counts, bad model files)."""


@dataclass(frozen=True)
class CostModel:
    """Unit prices in normalized cost units (CU)."""

    transponder_cu: float = 12.0
    ptmp_module_cu: float = 12.0
    router_large_cu: float = 64.0
    routers_per_hl3: int = 1

    def __post_init__(self):
        for name in ("transponder_cu", "ptmp_module_cu", "router_large_cu", "routers_per_hl3"):
            if not 0 <= getattr(self, name) < math.inf:
                raise CostingError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ArchitectureCost:
    arch: ArchitectureKind
    transceiver_count: int
    transceiver_cost_cu: float
    router_cost_cu: float
    total_cu: float


@dataclass(frozen=True)
class Savings:
    baseline: ArchitectureKind
    alternative: ArchitectureKind
    transponder_savings_pct: float
    cost_savings_pct: float


@dataclass(frozen=True)
class CostReport:
    costs: dict[ArchitectureKind, ArchitectureCost]
    savings: tuple[Savings, ...]

    def cost_of(self, arch: ArchitectureKind) -> ArchitectureCost:
        return self.costs[arch]

    def savings_between(self, baseline: ArchitectureKind, alternative: ArchitectureKind) -> Savings:
        for s in self.savings:
            if s.baseline is baseline and s.alternative is alternative:
                return s
        raise CostingError(f"no savings pair ({baseline.value} -> {alternative.value}) in report")


def cost(result: DimensioningResult, model: CostModel, scenario: NetworkScenario) -> ArchitectureCost:
    """CAPEX of one exact dimensioning result under the cost model."""
    if result.mode is not Mode.EXACT:
        raise CostingError("costing requires exact-mode counts (hardware is integral)")
    unit = model.ptmp_module_cu if result.arch is ArchitectureKind.PTMP else model.transponder_cu
    transceiver = result.total * unit
    router = 0.0
    if result.arch is ArchitectureKind.GROOMING:
        router = scenario.h3 * model.routers_per_hl3 * model.router_large_cu
    return ArchitectureCost(
        arch=result.arch,
        transceiver_count=int(result.total),
        transceiver_cost_cu=float(transceiver),
        router_cost_cu=float(router),
        total_cu=float(transceiver + router),
    )


def _savings_pct(base: float, alt: float) -> float:
    # zero baseline only happens when every architecture is zero (a4 = 0)
    if base == 0:
        return 0.0
    return (base - alt) / base * 100.0


def compare(
    results: Mapping[ArchitectureKind, DimensioningResult],
    model: CostModel,
    scenario: NetworkScenario,
) -> CostReport:
    """Cost every architecture and compute savings for every ordered pair."""
    if len(results) < 2:
        raise CostingError(f"compare needs at least 2 architectures, got {len(results)}")
    costs = {arch: cost(result, model, scenario) for arch, result in results.items()}
    pairs = []
    for base_arch, base in results.items():
        for alt_arch, alt in results.items():
            if base_arch is alt_arch:
                continue
            pairs.append(
                Savings(
                    baseline=base_arch,
                    alternative=alt_arch,
                    transponder_savings_pct=_savings_pct(base.total, alt.total),
                    cost_savings_pct=_savings_pct(costs[base_arch].total_cu, costs[alt_arch].total_cu),
                )
            )
    return CostReport(costs=costs, savings=tuple(pairs))


def cost_model_from_json(text: str) -> CostModel:
    return read_record(text, CostModel, CostingError)


def load_cost_model(path: str | Path) -> CostModel:
    return cost_model_from_json(Path(path).read_text(encoding="utf-8"))
