"""The IPET flow polytope, shared by WCET and FMM computations.

Variables are execution counts of CFG edges plus a virtual entry edge
and a virtual exit edge (both fixed to one: a single task activation).
A block's execution count is the sum of its incoming edge counts.

Constraints:

* flow conservation at every block (in-flow equals out-flow, with the
  virtual edges feeding the entry and draining the exit);
* for every natural loop, header executions bounded by
  ``bound * (flow on the loop's entry edges)``.

First-miss references need one auxiliary variable per (block,
persistence scope) group — bounded by the block count and by the scope
entry flow — added on demand per objective because the grouping depends
on the classification pair under study.
"""

from __future__ import annotations

from repro.analysis.chmc import GLOBAL_SCOPE
from repro.cfg import CFG, LoopForest, find_loops
from repro.errors import SolverError
from repro.ipet.ilp import LinearProgram
from repro.solve.planner import SolvePlanner


class FlowModel:
    """Flow polytope of a CFG, with helpers to attach cost objectives."""

    def __init__(self, cfg: CFG, forest: LoopForest | None = None) -> None:
        cfg.validate()
        self.cfg = cfg
        self.forest = forest if forest is not None else find_loops(cfg)
        self.program = LinearProgram(name=f"ipet:{cfg.name}")
        self._planner: SolvePlanner | None = None

        self._edge_vars: dict[tuple[int, int], int] = {}
        for edge in cfg.edges():
            self._edge_vars[edge] = self.program.add_variable(
                f"e_{edge[0]}_{edge[1]}")
        #: Virtual edges: one activation enters and leaves the program.
        self.entry_var = self.program.add_variable("e_entry", lower=1.0,
                                                   upper=1.0)
        self.exit_var = self.program.add_variable("e_exit", lower=1.0,
                                                  upper=1.0)
        self._add_flow_conservation()
        self._add_loop_bounds()
        #: Memoised FM variables keyed by (block_id, scope).
        self._fm_vars: dict[tuple[int, int], int] = {}

    @property
    def planner(self) -> SolvePlanner:
        """The shared solve planner of this polytope.

        Lazy and unique per flow model, so every consumer (WCET, all
        FMM mechanisms) dedups against one canonical-objective cache.
        """
        if self._planner is None:
            self._planner = SolvePlanner(self.program)
        return self._planner

    # ------------------------------------------------------------------
    def edge_var(self, src: int, dst: int) -> int:
        try:
            return self._edge_vars[(src, dst)]
        except KeyError as exc:
            raise SolverError(f"no variable for edge ({src}, {dst})") from exc

    def in_edge_vars(self, block_id: int) -> list[int]:
        """Variables whose sum is the block's execution count."""
        variables = [self._edge_vars[(pred, block_id)]
                     for pred in self.cfg.predecessors(block_id)]
        if block_id == self.cfg.entry_id:
            variables.append(self.entry_var)
        return variables

    def block_count_coefficients(self, block_id: int,
                                 weight: float = 1.0) -> dict[int, float]:
        """Coefficient map representing ``weight * x_block``."""
        coefficients: dict[int, float] = {}
        for variable in self.in_edge_vars(block_id):
            coefficients[variable] = coefficients.get(variable, 0.0) + weight
        return coefficients

    def scope_entry_vars(self, scope: int) -> list[int]:
        """Variables whose sum is the number of entries into a scope.

        For :data:`GLOBAL_SCOPE` this is the virtual entry edge (one
        activation); for a loop it is the loop's entry edges.
        """
        if scope == GLOBAL_SCOPE:
            return [self.entry_var]
        loop = self.forest.loop(scope)
        return [self._edge_vars[edge] for edge in loop.entry_edges(self.cfg)]

    def fm_group_var(self, block_id: int, scope: int) -> int:
        """Miss-count variable for FM references of (block, scope).

        All first-miss references of the same block with the same
        persistence scope share one variable ``m`` with
        ``m <= x_block`` and ``m <= entries(scope)``; the objective
        multiplies it by the number of grouped references.
        """
        key = (block_id, scope)
        if key in self._fm_vars:
            return self._fm_vars[key]
        variable = self.program.add_variable(f"m_{block_id}_s{scope}")
        # m - x_block <= 0
        coefficients = self.block_count_coefficients(block_id, -1.0)
        coefficients[variable] = coefficients.get(variable, 0.0) + 1.0
        self.program.add_le(coefficients, 0.0)
        # m - entries(scope) <= 0
        coefficients = {variable: 1.0}
        for entry_variable in self.scope_entry_vars(scope):
            coefficients[entry_variable] = (
                coefficients.get(entry_variable, 0.0) - 1.0)
        self.program.add_le(coefficients, 0.0)
        self._fm_vars[key] = variable
        return variable

    # ------------------------------------------------------------------
    def _add_flow_conservation(self) -> None:
        cfg = self.cfg
        for block_id in cfg.block_ids():
            coefficients: dict[int, float] = {}
            for variable in self.in_edge_vars(block_id):
                coefficients[variable] = coefficients.get(variable, 0.0) + 1.0
            out_vars = [self._edge_vars[(block_id, succ)]
                        for succ in cfg.successors(block_id)]
            if block_id == cfg.exit_id:
                out_vars.append(self.exit_var)
            for variable in out_vars:
                coefficients[variable] = coefficients.get(variable, 0.0) - 1.0
            self.program.add_eq(coefficients, 0.0)

    def _add_loop_bounds(self) -> None:
        for header, loop in self.forest.loops.items():
            entry_edges = loop.entry_edges(self.cfg)
            if not entry_edges:
                raise SolverError(
                    f"loop at header {header} has no entry edge")
            # x_header - bound * entries <= 0
            coefficients = self.block_count_coefficients(header, 1.0)
            for edge in entry_edges:
                variable = self._edge_vars[edge]
                coefficients[variable] = (
                    coefficients.get(variable, 0.0) - float(loop.bound))
            self.program.add_le(coefficients, 0.0)
