"""The solve planner: dedup, prune, batch, and persist the ILP sweep.

One planner is bound to one shared :class:`LinearProgram` (the flow
polytope) and mediates every objective solved against it:

* **dedup** — results are cached by the request's canonical objective
  key, so symmetric cache sets, repeated degradation patterns, and
  mechanisms sharing degraded classifications are solved once;
* **persistence** — with a :class:`~repro.solve.store.SolveStore`
  attached, solved objectives are looked up on disk before the backend
  is touched and written through after every solve, so repeated
  CLI/suite/CI invocations skip already-solved ILPs entirely;
* **empty short-circuit** — a column with no degradable reference is
  0-penalty and never touches the solver;
* **batching** — :meth:`SolvePlanner.prime` solves the unique
  uncached requests of a batch up front, in-process; the rows planned
  afterwards are pure fan-out.  Parallelism lives one level up, in
  the pipeline's task DAG (one solve task per benchmark and line
  size), never inside a planner.

All shortcuts are value-preserving: planned results are bit-identical
to solving every (set, fault count) ILP directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.solve.request import SolveRequest
from repro.solve.store import SolveStore, solve_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ipet.ilp import LinearProgram, Solution


@dataclass
class SolveStats:
    """Counters describing how much solver work the planner avoided."""

    #: FMM cells requested (including empty and pruned ones).
    requests: int = 0
    #: Integer programs actually handed to the backend.
    ilp_solved: int = 0
    #: LP relaxations solved (relaxed-mode solves).
    lp_solved: int = 0
    #: Requests answered from the canonical-objective cache.
    dedup_hits: int = 0
    #: Requests answered from the persistent cross-run store.
    store_hits: int = 0
    #: Cells skipped because their objective was empty.
    pruned_empty: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class SolvePlanner:
    """Plans every solve against one shared flow polytope."""

    def __init__(self, program: "LinearProgram") -> None:
        self.program = program
        self.stats = SolveStats()
        self._results: dict[object, int] = {}
        self._solutions: dict[object, "Solution"] = {}
        #: Keys solved ahead of time by :meth:`prime` (or served by the
        #: store) whose first consumption must not count as a dedup hit.
        self._primed: set[object] = set()
        self._store: SolveStore | None = None
        self._store_context: str | None = None
        self._store_keys: dict[tuple, str] = {}

    # -- persistent store ----------------------------------------------
    def attach_store(self, store: SolveStore, context: str) -> None:
        """Wire the cross-run store; ``context`` keys this polytope.

        ``context`` must determine the polytope (see
        :func:`repro.solve.store.solve_context`); the per-request key
        adds the canonical *named* objective and the solver mode, so
        keys are independent of variable creation order.
        """
        self._store = store
        self._store_context = context
        self._store_keys: dict[tuple, str] = {}

    def _named_objective(self, objective) -> list:
        name = self.program.variable_name
        return [(name(index), weight) for index, weight in objective]

    def _store_key(self, request: SolveRequest, kind: str = "value") -> str:
        # Memoised: a cold solve needs the same key twice (miss, then
        # write-through), and some requests recur across FMM rows.
        memo_key = (request.key, kind)
        key = self._store_keys.get(memo_key)
        if key is None:
            key = solve_key(self._store_context,
                            self._named_objective(request.objective),
                            request.relaxed, kind=kind)
            self._store_keys[memo_key] = key
        return key

    def _store_get(self, request: SolveRequest) -> int | None:
        if self._store is None:
            return None
        value = self._store.get(self._store_key(request))
        if value is not None:
            self.stats.store_hits += 1
        return value

    def _store_put(self, request: SolveRequest, value: int) -> None:
        if self._store is not None:
            self._store.put(self._store_key(request), value)

    # -- single requests -----------------------------------------------
    def solve(self, request: SolveRequest) -> int:
        """Integer bound of one request, through the dedup cache."""
        return self._bound(request)

    def _bound(self, request: SolveRequest) -> int:
        key = request.key
        if key in self._results:
            if key in self._primed:
                # First consumption of a batch-solved request: the
                # solve was already counted by prime().
                self._primed.discard(key)
            else:
                self.stats.dedup_hits += 1
            return self._results[key]
        value = self._store_get(request)
        if value is None:
            value = self._solve_uncached(request)
            self._store_put(request, value)
        self._results[key] = value
        return value

    def solve_with_values(self, objective: dict[int, float], *,
                          relaxed: bool = False) -> "Solution":
        """Solve returning the full solution vector, store-backed.

        Used by the WCET computation, which reads edge counts off the
        critical path.  Deduplicated in-process like every other
        objective (geometries of one line size can share a WCET
        objective).  With a store attached, the whole solution
        (objective value plus the non-zero variables, recorded by
        *name*) round-trips through an artefact entry, so a warm rerun
        of the pipeline performs zero backend solves even for the
        fault-free WCET.
        """
        request = SolveRequest.from_objective(objective, relaxed=relaxed)
        if request.key in self._solutions:
            self.stats.dedup_hits += 1
            return self._solutions[request.key]
        key = None
        solution = None
        if self._store is not None:
            key = self._store_key(request, kind="solution")
            artefact = self._store.get_artefact(key)
            if artefact is not None:
                self.stats.store_hits += 1
                solution = self._solution_from_artefact(artefact, relaxed)
        if solution is None:
            solution = self.program.maximize(request.objective,
                                             relaxed=relaxed)
            if relaxed:
                self.stats.lp_solved += 1
            else:
                self.stats.ilp_solved += 1
            if key is not None:
                self._store.put_artefact(key,
                                         self._solution_artefact(solution))
        self._solutions[request.key] = solution
        return solution

    def _solution_artefact(self, solution: "Solution") -> dict:
        name = self.program.variable_name
        values = {name(index): float(value)
                  for index, value in enumerate(solution.values)
                  if value != 0.0}
        return {"objective": float(solution.objective), "values": values}

    def _solution_from_artefact(self, artefact: dict,
                                relaxed: bool) -> "Solution":
        import numpy as np

        from repro.ipet.ilp import Solution

        index_of = {self.program.variable_name(index): index
                    for index in range(self.program.num_variables)}
        values = np.zeros(self.program.num_variables)
        for name, value in artefact["values"].items():
            index = index_of.get(name)
            # Names absent from the current program belong to variables
            # another consumer added later; they cannot influence this
            # objective's optimum and are safely dropped.
            if index is not None:
                values[index] = value
        return Solution(objective=float(artefact["objective"]),
                        values=values, relaxed=relaxed)

    def _solve_uncached(self, request: SolveRequest) -> int:
        solution = self.program.maximize(request.objective,
                                         relaxed=request.relaxed)
        if request.relaxed:
            from repro.solve.backend import ceil_bound
            self.stats.lp_solved += 1
            # LP relaxation of a maximisation: round up to stay sound.
            return ceil_bound(solution.objective)
        self.stats.ilp_solved += 1
        return solution.rounded_objective()

    # -- FMM row planning ----------------------------------------------
    def fmm_row(self, columns: Sequence[SolveRequest | None]) -> tuple[int, ...]:
        """Plan one FMM row; ``None`` marks an empty-objective column.

        Columns are fault counts 1..max in order; the returned row is
        prefixed with the mandatory 0-fault column.  The row value is
        ``max(column bound, previous value)``: FMM rows are
        non-decreasing in fault count.
        """
        row = [0]
        for request in columns:
            previous = row[-1]
            self.stats.requests += 1
            if request is None:
                self.stats.pruned_empty += 1
                row.append(previous)
            else:
                row.append(max(self._bound(request), previous))
        return tuple(row)

    # -- batching --------------------------------------------------------
    def prime(self, requests: Iterable[SolveRequest]) -> None:
        """Batch-solve the unique uncached requests of a sweep.

        Results land in the dedup cache — and are written through to
        the persistent store — so the subsequent row planning is pure
        fan-out.  Requests already persisted by an earlier run are
        answered from the store and never reach the backend.
        """
        unique: dict[object, SolveRequest] = {}
        for request in requests:
            if request.key not in self._results:
                unique.setdefault(request.key, request)
        for request in unique.values():
            value = self._store_get(request)
            if value is None:
                value = self._solve_uncached(request)
                self._store_put(request, value)
            self._results[request.key] = value
            self._primed.add(request.key)
