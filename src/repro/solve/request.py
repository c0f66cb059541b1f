"""Declarative solve requests with canonical deduplication keys.

A request describes one maximisation over the shared flow polytope.
The objective is stored as a tuple of ``(variable index, weight)``
pairs sorted by index, so two requests built from different cache
sets, fault counts or mechanisms compare equal exactly when their
objectives are the same linear function — which makes the planner's
dedup cache a plain dictionary lookup.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import SolverError

#: Canonical objective representation: index-sorted coefficient pairs.
ObjectiveKey = tuple[tuple[int, float], ...]


def canonical_objective(objective: Mapping[int, float]) -> ObjectiveKey:
    """Sort a coefficient map into the canonical dedup form."""
    return tuple(sorted(objective.items()))


@dataclass(frozen=True)
class SolveRequest:
    """One planned maximisation over the shared linear program.

    ``tag`` carries caller-side context (e.g. ``(set, fault count)``)
    for diagnostics only; it does not participate in identity, so
    symmetric sets still dedup onto one solve.
    """

    objective: ObjectiveKey
    #: Solve the LP relaxation instead of the ILP (sound for a max).
    relaxed: bool = False
    tag: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.objective:
            raise SolverError(
                "empty solve request; empty objectives short-circuit to 0 "
                "and must not reach the planner as requests")

    @classmethod
    def from_objective(cls, objective: Mapping[int, float], *,
                       relaxed: bool = False,
                       tag: tuple = ()) -> "SolveRequest":
        return cls(objective=canonical_objective(objective),
                   relaxed=relaxed, tag=tag)

    @property
    def key(self) -> tuple[ObjectiveKey, bool]:
        """Dedup cache key: same key implies the same optimum."""
        return (self.objective, self.relaxed)
