"""Frozen solver inputs and persistent solve backends.

``scipy.optimize.milp`` rebuilds its whole model on every call: the
constraint matrix is re-validated, ``Bounds``/``LinearConstraint``
objects re-checked, and a fresh HiGHS instance created and loaded.
For the FMM sweep — hundreds of objectives over one unchanging
polytope — that per-call overhead dominates the actual solve time.

:class:`ProgramSnapshot` freezes a program's constraint system once
into plain numpy arrays.  Two backends solve objectives against a
snapshot:

* :class:`HighsBackend` — keeps persistent HiGHS models (one ILP, one
  LP relaxation) loaded via scipy's vendored ``highspy`` bindings and
  swaps only the cost vector between solves.  ~5x less per-solve
  overhead than ``scipy.optimize.milp``.
* :class:`ScipyBackend` — the portable fallback; still benefits from
  the frozen CSC matrix, ``Bounds`` and ``LinearConstraint`` objects.

Both backends produce the same optima (HiGHS solves the model either
way); the equivalence is pinned by tests.  :func:`make_backend` picks
:class:`HighsBackend` whenever this scipy build ships the bindings.

scipy is imported on first snapshot or backend build, not with this
module: commands that never solve (``repro list``, warm runs served
from the stores) skip its ~0.5 s import entirely.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.testing import faultinject

#: Map of scipy.milp status codes to human-readable causes.
_MILP_STATUS = {
    0: "optimal",
    1: "iteration or time limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical difficulties",
}


@functools.cache
def _highs_core():
    """scipy's vendored HiGHS bindings (a private, but stable, API), or
    ``None`` when this scipy build lacks them."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:  # pragma: no cover - depends on scipy build
        return None
    return _core


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment, preferred first."""
    if _highs_core() is not None:
        return ("highs", "scipy")
    return ("scipy",)


@dataclass(frozen=True)
class ProgramSnapshot:
    """A linear program's constraint system, frozen to numpy arrays.

    Plain data only, hashable by identity; rebuilt only when the
    program changes.
    """

    name: str
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    #: Constraint matrix in CSC form.
    matrix_indptr: np.ndarray
    matrix_indices: np.ndarray
    matrix_data: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.col_lower)

    @property
    def num_constraints(self) -> int:
        return len(self.row_lower)

    @classmethod
    def from_rows(cls, name: str, lower: list[float], upper: list[float],
                  rows: list[dict[int, float]], row_lb: list[float],
                  row_ub: list[float]) -> "ProgramSnapshot":
        """Freeze the incremental row/bound lists of a program."""
        from scipy import sparse

        data: list[float] = []
        row_idx: list[int] = []
        col_idx: list[int] = []
        for row, coefficients in enumerate(rows):
            for col, value in coefficients.items():
                data.append(value)
                row_idx.append(row)
                col_idx.append(col)
        matrix = sparse.csc_matrix((data, (row_idx, col_idx)),
                                   shape=(len(rows), len(lower)))
        return cls(name=name,
                   col_lower=np.asarray(lower, dtype=np.float64),
                   col_upper=np.asarray(upper, dtype=np.float64),
                   row_lower=np.asarray(row_lb, dtype=np.float64),
                   row_upper=np.asarray(row_ub, dtype=np.float64),
                   matrix_indptr=matrix.indptr.astype(np.int64),
                   matrix_indices=matrix.indices.astype(np.int64),
                   matrix_data=matrix.data.astype(np.float64))

    def csc_matrix(self):
        from scipy import sparse

        return sparse.csc_matrix(
            (self.matrix_data, self.matrix_indices, self.matrix_indptr),
            shape=(self.num_constraints, self.num_variables))


class SolverBackend(ABC):
    """Solves many objectives against one frozen constraint system."""

    def __init__(self, snapshot: ProgramSnapshot) -> None:
        self.snapshot = snapshot

    def solve(self, objective: Mapping[int, float], sign: float,
              relaxed: bool) -> tuple[float, np.ndarray]:
        """Optimise ``sign``-adjusted objective; returns (value, x).

        ``sign=-1`` maximises, ``sign=1`` minimises, matching the
        historical :class:`~repro.ipet.ilp.LinearProgram` convention.
        Template method: the chaos harness's ``solve`` site fires
        here (injected per-program failures), then the
        backend-specific ``_solve`` runs.
        """
        faultinject.solve_hook(self.snapshot.name)
        return self._solve(objective, sign, relaxed)

    @abstractmethod
    def _solve(self, objective: Mapping[int, float], sign: float,
               relaxed: bool) -> tuple[float, np.ndarray]:
        """Backend-specific solve (see :meth:`solve`)."""

    def _cost_vector(self, objective: Mapping[int, float],
                     sign: float) -> np.ndarray:
        c = np.zeros(self.snapshot.num_variables)
        for index, coefficient in objective.items():
            c[index] = sign * coefficient
        return c

    def _fail(self, cause: str, message: str) -> SolverError:
        return SolverError(f"{self.snapshot.name}: solver failed "
                           f"({cause}): {message}")


class ScipyBackend(SolverBackend):
    """Frozen-input path through ``scipy.optimize.milp``."""

    def __init__(self, snapshot: ProgramSnapshot) -> None:
        from scipy import optimize

        super().__init__(snapshot)
        n = snapshot.num_variables
        self._milp = optimize.milp
        self._bounds = optimize.Bounds(snapshot.col_lower,
                                       snapshot.col_upper)
        self._constraints = []
        if snapshot.num_constraints:
            self._constraints.append(optimize.LinearConstraint(
                snapshot.csc_matrix(), snapshot.row_lower,
                snapshot.row_upper))
        self._integrality = {False: np.ones(n), True: np.zeros(n)}

    def _solve(self, objective: Mapping[int, float], sign: float,
               relaxed: bool) -> tuple[float, np.ndarray]:
        result = self._milp(c=self._cost_vector(objective, sign),
                               constraints=self._constraints,
                               bounds=self._bounds,
                               integrality=self._integrality[relaxed])
        if not result.success:
            cause = _MILP_STATUS.get(result.status,
                                     f"status {result.status}")
            raise self._fail(cause, result.message)
        # milp always minimises; undo the sign flip used for maximise.
        return float(result.fun) / sign, result.x


class HighsBackend(SolverBackend):
    """Persistent HiGHS models; only the cost vector changes per solve."""

    def __init__(self, snapshot: ProgramSnapshot) -> None:
        if _highs_core() is None:  # pragma: no cover - guarded by factory
            raise SolverError("scipy's highspy bindings are unavailable")
        super().__init__(snapshot)
        self._solvers: dict[bool, object] = {}
        self._indices = np.arange(snapshot.num_variables, dtype=np.int64)

    def _build(self, relaxed: bool):
        core = _highs_core()
        snapshot = self.snapshot
        n = snapshot.num_variables
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = snapshot.num_constraints
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = snapshot.col_lower
        lp.col_upper_ = snapshot.col_upper
        lp.row_lower_ = snapshot.row_lower
        lp.row_upper_ = snapshot.row_upper
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = snapshot.num_constraints
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = snapshot.matrix_indptr
        lp.a_matrix_.index_ = snapshot.matrix_indices
        lp.a_matrix_.value_ = snapshot.matrix_data
        variable_type = core.HighsVarType(0 if relaxed else 1)
        lp.integrality_ = [variable_type] * n
        solver = core._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("log_to_console", False)
        # Mirror scipy.optimize.milp's default of forcing presolve on.
        solver.setOptionValue("presolve", "on")
        status = solver.passModel(lp)
        if status == core.HighsStatus.kError:
            raise self._fail("model load", "HiGHS rejected the model")
        return solver

    def _solver(self, relaxed: bool):
        if relaxed not in self._solvers:
            self._solvers[relaxed] = self._build(relaxed)
        return self._solvers[relaxed]

    def _solve(self, objective: Mapping[int, float], sign: float,
               relaxed: bool) -> tuple[float, np.ndarray]:
        core = _highs_core()
        solver = self._solver(relaxed)
        solver.changeColsCost(self.snapshot.num_variables, self._indices,
                              self._cost_vector(objective, sign))
        run_status = solver.run()
        model_status = solver.getModelStatus()
        if (run_status == core.HighsStatus.kError
                or model_status != core.HighsModelStatus.kOptimal):
            raise self._fail(self._cause(model_status),
                             solver.modelStatusToString(model_status))
        value = float(solver.getInfo().objective_function_value)
        values = np.array(solver.getSolution().col_value)
        return value / sign, values

    @staticmethod
    def _cause(model_status) -> str:
        core = _highs_core()
        if model_status == core.HighsModelStatus.kInfeasible:
            return "infeasible"
        if model_status in (core.HighsModelStatus.kUnbounded,
                            core.HighsModelStatus.kUnboundedOrInfeasible):
            return "unbounded"
        return f"status {model_status}"

    def __getstate__(self):  # the HiGHS handles never cross processes
        return {"snapshot": self.snapshot}

    def __setstate__(self, state):
        self.__init__(state["snapshot"])


def make_backend(snapshot: ProgramSnapshot,
                 prefer: str = "highs") -> SolverBackend:
    """Build the best available backend for a frozen program.

    ``prefer`` may name ``"highs"`` or ``"scipy"`` (the backend
    equivalence tests build both); unavailable or unknown names fall
    back to the scipy path.
    """
    if prefer == "highs" and _highs_core() is not None:
        return HighsBackend(snapshot)
    return ScipyBackend(snapshot)


def ceil_bound(value: float) -> int:
    """Round a relaxed maximisation bound up (the sound direction)."""
    return int(math.ceil(value))
