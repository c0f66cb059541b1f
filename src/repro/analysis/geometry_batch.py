"""Geometry-batched classification: one fixpoint pair per line size.

The sweep's geometry axis re-analyses the *same* CFG over and over:
every geometry of one line-size group observes the identical
memory-block reference stream, so one
:class:`~repro.analysis.vectorized.AgeVectorEngine` lays the whole
group out as one block-diagonal age vector and a single Must/May
fixpoint pair serves every geometry (per-geometry ages fall out by
slicing).  The suite's single geometry is the group of one.

:func:`grouped_analysis` is the solve stage's classification step: it
builds one :class:`~repro.analysis.classify.CacheAnalysis` per
geometry of the group — all sharing one
:class:`~repro.analysis.classify.AnalysisStats`, one loop forest, one
engine and one SRB hit set, and per set count one reference map and
one persistence analysis — computes every geometry's required
tables, and writes them through the persistent
:class:`~repro.analysis.store.ClassificationStore` under each
geometry's own content address.  The pipeline's solve task then
consumes all of them in the same process, and everything the group
shares dies with its analyses.
"""

from __future__ import annotations

from repro.analysis.classify import AnalysisStats, CacheAnalysis, SrbHits
from repro.analysis.persistence import PersistenceAnalysis
from repro.analysis.references import all_references, block_streams
from repro.analysis.vectorized import AgeVectorEngine
from repro.cfg import CFG, find_loops
from repro.reliability.mechanism import (ReliabilityMechanism,
                                         mechanism_by_name)


def required_classifications(mechanisms, ways: int
                             ) -> tuple[tuple[int, ...], bool]:
    """Associativities (in first-demand order) a mechanism set needs.

    Nominal first, then each mechanism's degraded tables ``W-1, W-2,
    …``.  An SRB mechanism's all-faulty column replaces the
    associativity-0 table with its own filter; the flag reports
    whether any such filter reads the analysis' SRB hit set (the
    refined ``srb+`` filter runs its own per-set analysis instead).
    """
    assocs: list[int] = [ways]
    seen = {ways}
    needs_srb = False
    for mechanism in mechanisms:
        if not isinstance(mechanism, ReliabilityMechanism):
            mechanism = mechanism_by_name(mechanism)
        counts = mechanism.fault_counts(ways)
        for fault_count in range(1, max(counts) + 1):
            if mechanism.uses_srb and fault_count == ways:
                needs_srb = needs_srb or mechanism.reads_srb_hits
                continue
            assoc = ways - fault_count
            if assoc not in seen:
                seen.add(assoc)
                assocs.append(assoc)
    return tuple(assocs), needs_srb


def grouped_analysis(cfg: CFG, geometries, mechanisms, *,
                     cache: str | None = None
                     ) -> tuple[CacheAnalysis, ...]:
    """Classify a whole line-size group; return its analyses in order.

    Every geometry's required tables (each mechanism's degraded
    associativities at that geometry's own way count) plus the SRB hit
    set are computed up front and written through the persistent store
    under the geometry's own content addresses.  All analyses share
    one :class:`~repro.analysis.classify.AnalysisStats` (the work is
    attributed to the solve task), one loop forest, one fixpoint
    pair and one SRB fixpoint; the block stream is walked once, and
    geometries of one set count share one reference map and one
    persistence analysis.  A group of several geometries counts
    as one stacked group (``geometry_groups``) with ``len - 1``
    batched siblings; a group of one counts as neither.
    """
    geometries = tuple(geometries)
    cfg.validate()
    forest = find_loops(cfg)
    stats = AnalysisStats()
    if len(geometries) > 1:
        stats.classify_batched_rows = len(geometries) - 1
        stats.geometry_groups = 1
    lead = geometries[0]
    streams = block_streams(cfg, lead)
    references: dict[int, dict] = {}
    persistence: dict[int, PersistenceAnalysis] = {}
    for geometry in geometries:
        if geometry.sets not in references:
            references[geometry.sets] = all_references(cfg, geometry,
                                                       streams)
            persistence[geometry.sets] = PersistenceAnalysis(
                cfg, references[geometry.sets], forest)
    lead_references = references[lead.sets]
    engine = AgeVectorEngine(cfg, geometries, lead_references)
    srb_supplier = SrbHits(cfg, lead.block_bytes, stats, lead_references)
    analyses = tuple(
        CacheAnalysis(cfg, geometry, forest, cache=cache,
                      references=references[geometry.sets],
                      persistence=persistence[geometry.sets], stats=stats,
                      vector_engine=engine.geometry_slice(position),
                      srb_supplier=srb_supplier)
        for position, geometry in enumerate(geometries))
    for analysis in analyses:
        assocs, needs_srb = required_classifications(
            mechanisms, analysis.geometry.ways)
        for assoc in assocs:
            analysis.classification(assoc)
        if needs_srb:
            analysis.srb_always_hits()
    return analyses
