"""Frozen solver inputs and the persistent HiGHS solve backend.

``scipy.optimize.milp`` rebuilds its whole model on every call: the
constraint matrix is re-validated, ``Bounds``/``LinearConstraint``
objects re-checked, and a fresh HiGHS instance created and loaded.
For the FMM sweep — hundreds of objectives over one unchanging
polytope — that per-call overhead dominates the actual solve time.

:class:`ProgramSnapshot` freezes a program's constraint system once
into plain numpy arrays.  :class:`HighsBackend` solves objectives
against a snapshot: it keeps persistent HiGHS models (one ILP, one LP
relaxation) loaded via scipy's vendored ``highspy`` bindings
(``scipy.optimize._highspy``, a private but stable API) and swaps only
the cost vector between solves — ~5x less per-solve overhead than
``scipy.optimize.milp``.  It is the only backend: a scipy without the
bindings fails at the first solve with the import error.  Its
independent checks are the path enumerator
(:func:`repro.ipet.paths.max_path_cost`) and the exact-arithmetic
witness test, not a second solver.

scipy is imported on first snapshot or backend build, not with this
module: commands that never solve (``repro list``, warm runs served
from the stores) skip its ~0.5 s import entirely.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.testing import faultinject


@dataclass(frozen=True, eq=False)
class ProgramSnapshot:
    """A linear program's constraint system, frozen to numpy arrays.

    Plain data only, compared and hashed by identity (a backend is
    valid for exactly the snapshot it was built from); rebuilt only
    when the program changes.
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


class HighsBackend:
    """Persistent HiGHS models over one snapshot; only the cost vector
    changes per solve."""

    def __init__(self, snapshot: ProgramSnapshot) -> None:
        self.snapshot = snapshot
        self._solvers: dict[bool, object] = {}
        self._indices = np.arange(snapshot.num_variables, dtype=np.int64)

    def _build(self, relaxed: bool):
        from scipy.optimize._highspy import _core as core

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

    def solve(self, objective: Mapping[int, float],
              relaxed: bool) -> tuple[float, np.ndarray]:
        """Maximise ``objective``; returns (value, x).

        The chaos harness's ``solve`` site fires first (injected
        per-program failures).
        """
        faultinject.solve_hook(self.snapshot.name)
        from scipy.optimize._highspy import _core as core

        solver = self._solver(relaxed)
        # HiGHS minimises: solve for the negated costs, negate back.
        cost = np.zeros(self.snapshot.num_variables)
        for index, coefficient in objective.items():
            cost[index] = -coefficient
        solver.changeColsCost(self.snapshot.num_variables, self._indices,
                              cost)
        run_status = solver.run()
        model_status = solver.getModelStatus()
        if (run_status == core.HighsStatus.kError
                or model_status != core.HighsModelStatus.kOptimal):
            raise self._fail(self._cause(model_status),
                             solver.modelStatusToString(model_status))
        value = float(solver.getInfo().objective_function_value)
        values = np.array(solver.getSolution().col_value)
        return -value, values

    @staticmethod
    def _cause(model_status) -> str:
        from scipy.optimize._highspy import _core as core

        if model_status == core.HighsModelStatus.kInfeasible:
            return "infeasible"
        if model_status in (core.HighsModelStatus.kUnbounded,
                            core.HighsModelStatus.kUnboundedOrInfeasible):
            return "unbounded"
        return f"status {model_status}"

    def _fail(self, cause: str, message: str) -> SolverError:
        return SolverError(f"{self.snapshot.name}: solver failed "
                           f"({cause}): {message}")


def ceil_bound(value: float) -> int:
    """Round a relaxed maximisation bound up (the sound direction)."""
    return int(math.ceil(value))
