"""The dict Must/May analyses behind the age-engine slice interface.

:class:`DictOracle` answers ``guaranteed_hits``/``possibly_cached``
with fresh :class:`~repro.analysis.must.MustAnalysis` /
:class:`~repro.analysis.may.MayAnalysis` fixpoints per associativity.
Handed to :class:`~repro.analysis.classify.CacheAnalysis` as its
``vector_engine`` (and the SRB oracle as its ``srb_supplier``), it
yields the oracle's CHMC tables through the production classification
logic — so table-equivalence tests compare only the Must/May kernels.
"""

from __future__ import annotations

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
