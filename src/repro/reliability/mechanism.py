"""The two reliability mechanisms of the paper, plus the baseline.

* :class:`NoProtection` — the architecture of Hardy & Puaut 2015 ([1]):
  every way of every set can fail; a set can become entirely faulty.
* :class:`ReliableWay` (RW, §III-A1) — one hardened way per set.  The
  per-set fault distribution becomes eq. (3) over ``W - 1`` ways and
  the all-ways-faulty penalty point disappears.
* :class:`SharedReliableBuffer` (SRB, §III-A2) — one hardened buffer of
  one cache line, consulted only when the referenced set is entirely
  faulty.  Fault distribution unchanged (eq. 2), but the all-faulty
  FMM column drops the references that are guaranteed SRB hits.

Each mechanism answers two questions for the estimator: which per-set
fault counts are possible with what probability, and how the degraded
classification of the all-faulty case is obtained.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.analysis.chmc import (ALWAYS_HIT, ALWAYS_MISS, Classification)
from repro.errors import ConfigurationError
from repro.faults import FaultProbabilityModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import CacheAnalysis
    from repro.analysis.references import Reference

#: Classifier for one set's references when all its ways are faulty:
#: maps a reference to its behaviour on the mechanism's reliable
#: storage (always-hit, first-miss in a scope, or always-miss).
AllFaultyClassifier = Callable[["Reference"], Classification]
#: Per-set factory of such classifiers.
AllFaultyFilter = Callable[[int], AllFaultyClassifier]


class ReliabilityMechanism(ABC):
    """Interface the pWCET estimator programs against."""

    #: Short identifier used in reports and registries.
    name: str = ""
    #: Whether :meth:`all_faulty_filter` reads the analysis' SRB hit
    #: set (:meth:`~repro.analysis.classify.CacheAnalysis
    #: .srb_always_hits`), so the SRB fixpoint must run.
    reads_srb_hits: bool = False

    @abstractmethod
    def fault_counts(self, ways: int) -> tuple[int, ...]:
        """Per-set fault counts ``f`` with non-zero probability."""

    @abstractmethod
    def fault_pmf(self, model: FaultProbabilityModel) -> dict[int, float]:
        """Probability of each fault count in :meth:`fault_counts`
        (eq. 2 / eq. 3)."""

    @property
    def uses_srb(self) -> bool:
        """True when the all-faulty FMM column must be SRB-filtered."""
        return False

    def all_faulty_filter(self, analysis: "CacheAnalysis"
                          ) -> AllFaultyFilter | None:
        """Behaviour of the all-ways-faulty FMM column.

        Returns ``None`` when the mechanism provides no help in that
        case (every degraded reference pays its misses), or a per-set
        factory of classifiers describing how references to the faulty
        set behave on the mechanism's reliable storage.
        """
        return None

    def exceedance_correction(self, model: FaultProbabilityModel,
                              sets: int) -> float:
        """Probability mass excluded by the analysis' assumptions.

        The paper's mechanisms assume nothing (correction 0); refined
        analyses conditioning on rare events (see
        :mod:`repro.reliability.refined_srb`) report the excluded
        probability here, and the estimator adds it back to every
        exceedance value so results stay sound.
        """
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoProtection(ReliabilityMechanism):
    """Baseline: no reliability hardware (the architecture of [1])."""

    name = "none"

    def fault_counts(self, ways: int) -> tuple[int, ...]:
        return tuple(range(ways + 1))

    def fault_pmf(self, model: FaultProbabilityModel) -> dict[int, float]:
        ways = model.geometry.ways
        return {w: model.pwf(w) for w in range(ways + 1)}


class ReliableWay(ReliabilityMechanism):
    """RW: one fault-resilient way per set (paper §III-A1, eq. 3).

    At worst a set degrades to a direct-mapped set of one working way,
    so spatial locality — and MRU-position temporal locality — is
    always preserved.
    """

    name = "rw"

    def fault_counts(self, ways: int) -> tuple[int, ...]:
        if ways < 1:
            raise ConfigurationError("RW needs at least one way")
        return tuple(range(ways))  # 0 .. W-1

    def fault_pmf(self, model: FaultProbabilityModel) -> dict[int, float]:
        ways = model.geometry.ways
        return {w: model.pwf_reliable_way(w) for w in range(ways)}


class SharedReliableBuffer(ReliabilityMechanism):
    """SRB: one hardened buffer shared by all sets (paper §III-A2).

    The buffer is looked up only when the referenced set is entirely
    faulty, so it preserves spatial locality at a fraction of the RW's
    hardware cost; temporal locality across sets is (conservatively)
    not retained by the analysis.
    """

    name = "srb"
    reads_srb_hits = True

    def fault_counts(self, ways: int) -> tuple[int, ...]:
        return tuple(range(ways + 1))

    def fault_pmf(self, model: FaultProbabilityModel) -> dict[int, float]:
        ways = model.geometry.ways
        return {w: model.pwf(w) for w in range(ways + 1)}

    @property
    def uses_srb(self) -> bool:
        return True

    def all_faulty_filter(self, analysis: "CacheAnalysis"
                          ) -> AllFaultyFilter:
        # The analysis facade memoises and persists the SRB hit set
        # (same engine and classification store as the CHMC tables),
        # so warm SRB estimations run zero fixpoints.
        protected = analysis.srb_always_hits()

        def classify(reference: "Reference") -> Classification:
            if reference.key in protected:
                return ALWAYS_HIT
            return ALWAYS_MISS

        return lambda _set_index: classify


#: Registry of the paper's three configurations, in presentation order.
MECHANISMS: tuple[ReliabilityMechanism, ...] = (
    NoProtection(), SharedReliableBuffer(), ReliableWay())


def mechanism_by_name(name: str) -> ReliabilityMechanism:
    """Look up a mechanism by name ('none', 'srb', 'rw', or 'srb+').

    ``srb+`` is this library's future-work extension (the refined SRB
    analysis of :mod:`repro.reliability.refined_srb`).
    """
    for mechanism in MECHANISMS:
        if mechanism.name == name:
            return mechanism
    if name == "srb+":
        from repro.reliability.refined_srb import RefinedSharedReliableBuffer
        return RefinedSharedReliableBuffer()
    raise ConfigurationError(
        f"unknown mechanism {name!r}; expected one of "
        f"{[m.name for m in MECHANISMS] + ['srb+']}")
