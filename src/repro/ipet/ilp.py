"""A small (I)LP layer over HiGHS (persistent model or scipy fallback).

The paper uses CPLEX 12.5; HiGHS is the offline substitute.  Models
are built once (variables + constraints) and solved for many
objectives — the FMM computation reuses one flow polytope for every
(set, fault count) pair.  Solver inputs are frozen on first solve
(:class:`~repro.solve.backend.ProgramSnapshot`): the CSC matrix,
variable bounds and row bounds are materialised once per model
version instead of per call, and the backend keeps a persistent HiGHS
instance whose cost vector is swapped in place between solves.

Solving the LP relaxation instead of the ILP is supported: for a
*maximisation* the relaxation can only over-estimate, so a relaxed
WCET/FMM bound remains sound (just possibly less tight) — this is the
ABL-SOLVER ablation of DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.solve.backend import (ProgramSnapshot, SolverBackend,
                                 make_backend)


@dataclass(frozen=True)
class Solution:
    """An optimal solution of a :class:`LinearProgram`."""

    objective: float
    values: np.ndarray
    relaxed: bool

    def value_of(self, index: int) -> float:
        return float(self.values[index])

    def rounded_objective(self) -> int:
        """Objective as an integer (ILP objectives here are integral)."""
        return int(round(self.objective))


class LinearProgram:
    """Incrementally built (mixed-)integer linear program.

    All variables are non-negative; bounds are optional per variable.
    Constraints are ``<=`` or ``==`` rows over variable indices.
    Structural edits bump :attr:`version`, which invalidates the
    frozen snapshot and any persistent backend built from it.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._names: list[str] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._rows: list[dict[int, float]] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._version = 0
        self._snapshot: ProgramSnapshot | None = None
        self._snapshot_version = -1
        self._backend: SolverBackend | None = None
        self._backend_version = -1

    # -- model building ------------------------------------------------
    def add_variable(self, name: str, *, lower: float = 0.0,
                     upper: float | None = None) -> int:
        """Add a variable; returns its index."""
        if upper is not None and upper < lower:
            raise SolverError(
                f"variable {name!r}: upper {upper} < lower {lower}")
        self._names.append(name)
        self._lower.append(lower)
        self._upper.append(math.inf if upper is None else upper)
        self._version += 1
        return len(self._names) - 1

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    @property
    def version(self) -> int:
        """Bumped on every structural edit (variable or row added)."""
        return self._version

    def variable_name(self, index: int) -> str:
        return self._names[index]

    def add_le(self, coefficients: dict[int, float], rhs: float) -> None:
        """Add ``sum(c_i * x_i) <= rhs``."""
        self._add_row(coefficients, -math.inf, rhs)

    def add_eq(self, coefficients: dict[int, float], rhs: float) -> None:
        """Add ``sum(c_i * x_i) == rhs``."""
        self._add_row(coefficients, rhs, rhs)

    def _add_row(self, coefficients: dict[int, float], lb: float,
                 ub: float) -> None:
        if not coefficients:
            raise SolverError("empty constraint row")
        for index in coefficients:
            if not 0 <= index < len(self._names):
                raise SolverError(f"unknown variable index {index}")
        self._rows.append(dict(coefficients))
        self._row_lb.append(lb)
        self._row_ub.append(ub)
        self._version += 1

    # -- frozen inputs ---------------------------------------------------
    def snapshot(self) -> ProgramSnapshot:
        """The frozen constraint system for the current version."""
        if self._snapshot is None or self._snapshot_version != self._version:
            self._snapshot = ProgramSnapshot.from_rows(
                self.name, self._lower, self._upper, self._rows,
                self._row_lb, self._row_ub)
            self._snapshot_version = self._version
        return self._snapshot

    def backend(self) -> SolverBackend:
        """The persistent solve backend for the current version."""
        if self._backend is None or self._backend_version != self._version:
            self._backend = make_backend(self.snapshot())
            self._backend_version = self._version
        return self._backend

    # -- solving ---------------------------------------------------------
    def maximize(self, objective: dict[int, float], *,
                 relaxed: bool = False) -> Solution:
        """Maximise a linear objective over the model."""
        return self._solve(objective, sign=-1.0, relaxed=relaxed)

    def minimize(self, objective: dict[int, float], *,
                 relaxed: bool = False) -> Solution:
        """Minimise a linear objective over the model."""
        return self._solve(objective, sign=1.0, relaxed=relaxed)

    def _solve(self, objective: dict[int, float], sign: float,
               relaxed: bool) -> Solution:
        n = len(self._names)
        for index in objective:
            if not 0 <= index < n:
                raise SolverError(f"unknown variable index {index}")
        value, values = self.backend().solve(objective, sign, relaxed)
        return Solution(objective=value, values=values, relaxed=relaxed)

    # -- pickling --------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_backend"] = None  # backends hold process-local handles
        state["_backend_version"] = -1
        return state
