"""Fault-free WCET computation (IPET over the CHMC table)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.chmc import Chmc
from repro.errors import ConfigurationError
from repro.util import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.classify import ClassificationTable
    from repro.cfg import CFG, LoopForest
    from repro.ipet.model import FlowModel


@dataclass(frozen=True)
class TimingModel:
    """Latency parameters of the paper's setup (§IV-A).

    A hit costs the cache latency; a miss additionally pays the memory
    latency.  Only the instruction cache's contribution to the WCET is
    modelled, like the paper's experiments.
    """

    hit_cycles: int = 1
    memory_cycles: int = 100

    def __post_init__(self) -> None:
        check_positive_int(self.hit_cycles, "hit_cycles")
        check_positive_int(self.memory_cycles, "memory_cycles")

    @property
    def miss_cycles(self) -> int:
        """Total cost of a missing fetch."""
        return self.hit_cycles + self.memory_cycles


@dataclass(frozen=True)
class WCETResult:
    """Outcome of one IPET solve."""

    cycles: int
    #: Execution count of every block in the critical flow.
    block_counts: dict[int, int] = field(repr=False)
    #: True when the LP relaxation was used (sound, possibly looser).
    relaxed: bool = False


def compute_wcet(cfg: CFG, table: ClassificationTable, timing: TimingModel,
                 *, forest: LoopForest | None = None,
                 flow_model: FlowModel | None = None,
                 relaxed: bool = False) -> WCETResult:
    """WCET of one task activation under a classification table.

    Cost model per reference:

    * always-hit: ``hit_cycles`` each execution;
    * always-miss / not-classified: ``miss_cycles`` each execution;
    * first-miss in scope L: ``hit_cycles`` each execution plus
      ``memory_cycles`` for at most ``entries(L)`` executions.
    """
    if flow_model is None:
        from repro.ipet.model import FlowModel
        flow_model = FlowModel(cfg, forest)
    elif flow_model.cfg is not cfg:
        raise ConfigurationError("flow model belongs to a different CFG")

    objective: dict[int, float] = {}

    def add_term(coefficients: dict[int, float]) -> None:
        for variable, weight in coefficients.items():
            objective[variable] = objective.get(variable, 0.0) + weight

    for block_id in cfg.block_ids():
        classifications = table.of_block(block_id)
        base_cost = 0
        fm_scope_counts: dict[int, int] = {}
        for classification in classifications:
            base_cost += timing.hit_cycles
            if classification.counts_full_misses:
                base_cost += timing.memory_cycles
            elif classification.chmc is Chmc.FIRST_MISS:
                scope = classification.scope
                fm_scope_counts[scope] = fm_scope_counts.get(scope, 0) + 1
        if base_cost:
            add_term(flow_model.block_count_coefficients(block_id,
                                                         float(base_cost)))
        for scope, count in fm_scope_counts.items():
            variable = flow_model.fm_group_var(block_id, scope)
            weight = float(timing.memory_cycles * count)
            objective[variable] = objective.get(variable, 0.0) + weight

    if not objective:
        # A program with no instructions costs nothing.
        return WCETResult(cycles=0, block_counts={}, relaxed=relaxed)

    solution = flow_model.planner.solve_with_values(objective,
                                                    relaxed=relaxed)
    block_counts = {
        block_id: int(round(sum(
            solution.value_of(variable)
            for variable in flow_model.in_edge_vars(block_id))))
        for block_id in cfg.block_ids()
    }
    if relaxed:
        from repro.solve.backend import ceil_bound
        cycles = ceil_bound(solution.objective)
    else:
        cycles = solution.rounded_objective()
    return WCETResult(cycles=cycles, block_counts=block_counts,
                      relaxed=relaxed)
