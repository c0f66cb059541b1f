"""Frozen solver inputs and the persistent HiGHS solve backend.

``scipy.optimize.milp`` rebuilds its whole model on every call: the
constraint matrix is re-validated, ``Bounds``/``LinearConstraint``
objects re-checked, and a fresh HiGHS instance created and loaded.
For the FMM sweep — hundreds of objectives over one unchanging
polytope — that per-call overhead dominates the actual solve time.

:class:`ProgramSnapshot` freezes a program's constraint system once
into plain numpy arrays (CSC built with numpy alone).
:class:`HighsBackend` solves objectives against a snapshot: it keeps
persistent HiGHS models (one ILP, one LP relaxation) and swaps only
the cost vector between solves — ~5x less per-solve overhead than
``scipy.optimize.milp``.  It is the only backend.  Its independent
checks are the path enumerator (:func:`repro.ipet.paths.max_path_cost`)
and the exact-arithmetic witness test, not a second solver.

The HiGHS bindings are scipy's vendored ``highspy`` extension
(``scipy/optimize/_highspy/_core``, a private but stable API).
:func:`_highs_core` loads that one extension by file path on the
first snapshot solve, without running ``scipy.optimize``'s package
import (which pulls in ``scipy.linalg`` and ``scipy.sparse``: ~0.6 s
and ~40 MB per process).  Loading the bindings takes ~0.02 s, and
commands that never solve (``repro list``, warm runs served from the
stores) skip even that.  There is no fallback import: a scipy without
the file fails at the first solve with an :class:`ImportError` naming
the directory searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

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
        n = len(lower)
        row_idx = np.fromiter((row for row, coefficients in enumerate(rows)
                               for _ in coefficients), dtype=np.int64)
        col_idx = np.fromiter((col for coefficients in rows
                               for col in coefficients), dtype=np.int64)
        data = np.fromiter((value for coefficients in rows
                            for value in coefficients.values()),
                           dtype=np.float64)
        # Column-major order, rows ascending within a column: the
        # canonical CSC layout (no duplicates: a row is a dict).
        order = np.lexsort((row_idx, col_idx))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(col_idx, minlength=n), out=indptr[1:])
        return cls(name=name,
                   col_lower=np.asarray(lower, dtype=np.float64),
                   col_upper=np.asarray(upper, dtype=np.float64),
                   row_lower=np.asarray(row_lb, dtype=np.float64),
                   row_upper=np.asarray(row_ub, dtype=np.float64),
                   matrix_indptr=indptr,
                   matrix_indices=row_idx[order],
                   matrix_data=data[order])


#: The module name scipy gives the bindings; loading them under it
#: lets a later ``import scipy.optimize`` reuse the loaded module.
_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core(directory: Path | None = None):
    """scipy's vendored HiGHS bindings, loaded by file path.

    ``directory`` defaults to ``<scipy>/optimize/_highspy``, found
    with :func:`importlib.util.find_spec` (which does not import
    scipy); only the extension itself is loaded, once per process.
    """
    if directory is None:
        loaded = sys.modules.get(_HIGHS_CORE)
        if loaded is not None:
            return loaded
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            raise ImportError("the HiGHS bindings need scipy, which is "
                              "not installed")
        directory = Path(spec.submodule_search_locations[0], "optimize",
                         "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory, f"_core{suffix}")
        if path.is_file():
            break
    else:
        raise ImportError(f"no HiGHS bindings (_core extension) in "
                          f"{directory}")
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_CORE] = module
    return module


class HighsBackend:
    """Persistent HiGHS models over one snapshot; only the cost vector
    changes per solve."""

    def __init__(self, snapshot: ProgramSnapshot) -> None:
        self.snapshot = snapshot
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

    def solve(self, indices: np.ndarray, weights: np.ndarray,
              relaxed: bool) -> tuple[float, np.ndarray]:
        """Maximise ``sum(weights * x[indices])``; returns (value, x).

        ``indices`` must be distinct, in-range variable indices.  The
        chaos harness's ``solve`` site fires first (injected
        per-program failures).
        """
        faultinject.solve_hook(self.snapshot.name)
        core = _highs_core()
        solver = self._solver(relaxed)
        # HiGHS minimises: solve for the negated costs, negate back.
        cost = np.zeros(self.snapshot.num_variables)
        cost[indices] = -weights
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
        core = _highs_core()
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
