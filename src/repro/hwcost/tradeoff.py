"""The pWCET-gain / hardware-cost trade-off (paper §I and §IV-B).

"The two mechanisms differ by their hardware cost and impact on
estimated pWCETs, to allow the hardware designer to find the best
pWCET/cost tradeoff" — this module quantifies both axes per benchmark
and mechanism.  The pWCETs come from a
:func:`~repro.experiments.runner.run_suite` result, the same estimates
Figure 4 reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import BenchmarkResult
from repro.hwcost.model import MechanismCostModel
from repro.reliability import MECHANISMS


@dataclass(frozen=True)
class TradeoffPoint:
    """One (benchmark, mechanism) point of the trade-off space."""

    benchmark: str
    mechanism: str
    pwcet: int
    gain: float                  # pWCET reduction vs no protection
    area_overhead: float         # fraction of the unprotected cache
    leakage_overhead: float      # fraction of baseline leakage

    @property
    def gain_per_area_point(self) -> float:
        """Percentage points of pWCET gain per percent of extra area.

        Infinite for the free baseline; the designer's figure of merit
        for comparing SRB against RW.
        """
        if self.area_overhead == 0.0:
            return float("inf") if self.gain > 0 else 0.0
        return self.gain / self.area_overhead


def tradeoff_points(results: list[BenchmarkResult]
                    ) -> list[TradeoffPoint]:
    """Gain-vs-cost points for every suite result and mechanism.

    The cost model is that of the cache geometry the results were
    estimated on; the pWCETs are read at each result's target
    probability.
    """
    points = []
    for result in results:
        cost_model = MechanismCostModel(
            result.estimates["none"].fault_model.geometry)
        baseline_leakage = cost_model.cost_of(
            MECHANISMS[0]).leakage_equivalents
        reference = result.pwcet("none")
        for mechanism in MECHANISMS:
            cost = cost_model.cost_of(mechanism)
            pwcet = result.pwcet(mechanism.name)
            points.append(TradeoffPoint(
                benchmark=result.name, mechanism=mechanism.name, pwcet=pwcet,
                gain=1.0 - pwcet / reference,
                area_overhead=cost.area_overhead_ratio,
                leakage_overhead=(cost.leakage_equivalents
                                  / baseline_leakage - 1.0)))
    return points


def format_tradeoff(points: list[TradeoffPoint]) -> str:
    """Aligned table of the trade-off space."""
    lines = [f"{'benchmark':14s} {'mech':>5s} {'pWCET':>10s} {'gain':>7s} "
             f"{'area+':>7s} {'leak+':>7s} {'gain/area':>10s}"]
    lines.append("-" * len(lines[0]))
    for point in points:
        merit = point.gain_per_area_point
        merit_text = "inf" if merit == float("inf") else f"{merit:10.1f}"
        lines.append(
            f"{point.benchmark:14s} {point.mechanism:>5s} {point.pwcet:10d} "
            f"{point.gain:7.1%} {point.area_overhead:7.2%} "
            f"{point.leakage_overhead:7.2%} {merit_text:>10s}")
    return "\n".join(lines)
