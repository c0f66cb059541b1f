"""Independent references: the dict Must/May analyses and exact rationals.

:class:`DictOracle` answers ``guaranteed_hits``/``possibly_cached``
with fresh :class:`~repro.analysis.must.MustAnalysis` /
:class:`~repro.analysis.may.MayAnalysis` fixpoints per associativity.
Handed to :class:`~repro.analysis.classify.CacheAnalysis` as its
``vector_engine`` (and the SRB oracle as its ``srb_supplier``), it
yields the oracle's CHMC tables through the production classification
logic — so table-equivalence tests compare only the Must/May kernels.

:func:`exact_penalty_distribution` is the penalty convolution of
Figure 1.b in ``fractions.Fraction`` arithmetic, each float fault-pmf
weight taken as exact: the kernel's quantiles must equal
:func:`exact_quantiles` of it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.analysis import CacheAnalysis, MayAnalysis, MustAnalysis
from repro.reliability.srb_analysis import srb_always_hit_references


class DictOracle:
    """Must/May verdicts of the dict analyses, one pair per assoc."""

    fixpoints_run = 0

    def __init__(self, cfg, geometry) -> None:
        self._cfg = cfg
        self._geometry = geometry
        self._must: dict[int, MustAnalysis] = {}
        self._may: dict[int, MayAnalysis] = {}

    def must_ages(self) -> None:
        """Fixpoints run per associativity, on demand."""

    may_ages = must_ages

    def guaranteed_hits(self, block_id: int, assoc: int) -> np.ndarray:
        if assoc not in self._must:
            self._must[assoc] = MustAnalysis(self._cfg, self._geometry,
                                             assoc)
        return np.array(self._must[assoc].guaranteed_hits(block_id),
                        dtype=bool)

    def possibly_cached(self, block_id: int, assoc: int) -> np.ndarray:
        if assoc not in self._may:
            self._may[assoc] = MayAnalysis(self._cfg, self._geometry,
                                           assoc)
        return np.array(self._may[assoc].possibly_cached(block_id),
                        dtype=bool)


def oracle_analysis(cfg, geometry) -> CacheAnalysis:
    """A store-less analysis whose verdicts come from the dict oracle."""
    return CacheAnalysis(
        cfg, geometry, cache="off",
        vector_engine=DictOracle(cfg, geometry),
        srb_supplier=lambda: srb_always_hit_references(cfg, geometry))


def exact_convolve(left: dict[int, Fraction],
                   right: dict[int, Fraction]) -> dict[int, Fraction]:
    """The pmf of the sum of two independent ``{value: mass}`` maps."""
    result: dict[int, Fraction] = {}
    for a, pa in left.items():
        for b, pb in right.items():
            result[a + b] = result.get(a + b, Fraction(0)) + pa * pb
    return result


def exact_penalty_distribution(fmm, mechanism, fault_model,
                               sets: int) -> dict[int, Fraction]:
    """Whole-cache penalty pmf over the first ``sets`` FMM rows."""
    weights = {count: Fraction(probability) for count, probability
               in mechanism.fault_pmf(fault_model).items()}
    total = {0: Fraction(1)}
    for row in fmm.rows[:sets]:
        points: dict[int, Fraction] = {}
        for count, weight in weights.items():
            points[row[count]] = points.get(row[count], Fraction(0)) \
                + weight
        total = exact_convolve(total, points)
    return total


def exact_tails(points: dict[int, Fraction]) -> list[tuple[int, Fraction]]:
    """``(v, P(X > v))`` for every support value ``v``, largest first."""
    tails, tail = [], Fraction(0)
    for value in sorted(points, reverse=True):
        tails.append((value, tail))
        tail += points[value]
    return tails


def exact_quantiles(points: dict[int, Fraction],
                    probabilities) -> list[int]:
    """Smallest ``v`` with ``P(X > v) <= p``, for each ``p``.

    A float ``p`` is read as the exact rational it stores.
    """
    tails = exact_tails(points)
    answers = []
    for probability in map(Fraction, probabilities):
        answer = tails[0][0]
        for value, tail in tails:
            if tail > probability:
                break
            answer = value
        answers.append(answer)
    return answers
