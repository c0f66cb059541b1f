"""Geometry-batched classification: one stacked fixpoint per line size.

The sweep's geometry axis re-analyses the *same* CFG over and over:
``block_of(address)`` depends on the geometry only through the line
size, so every geometry of one line-size group observes the identical
memory-block reference stream — only the set mapping (``sets``) and
the absent sentinel (``ways``) differ.  LRU abstract interpretation is
set-independent, and the flat age-vector encoding of
:class:`~repro.analysis.vectorized.AgeVectorEngine` makes that
independence literal: transfers and joins are elementwise and never
mix set segments.

:class:`StackedAgeVectorEngine` therefore lays *all* geometries of a
group out as disjoint segment ranges of ONE concatenated age vector —
a block-diagonal product state::

    [ g0.set0 | g0.set1 | ... | g1.set0 | ... | gN.setS ]

— and runs a single Must/May fixpoint pair over it.  Each geometry's
segments carry that geometry's own sentinel, every reference applies
one gather/scatter update covering all stacked geometries at once, and
the worklist propagates whole state vectors (the wide fused transfer
amortises what per-set bookkeeping would save — see
:meth:`StackedAgeVectorEngine._solve`).  Because no operation ever
crosses a segment boundary,
the stacked least fixpoint restricted to geometry ``g`` *is* ``g``'s
own least fixpoint — per-geometry ages fall out by slicing
(:meth:`StackedAgeVectorEngine.geometry_slice`), byte-identical to a
per-geometry engine run, and PR 4's associativity thresholding still
answers every degraded associativity of every stacked geometry from
the one pair.

:func:`grouped_analysis` is the classify stage's entry point: it
builds one :class:`~repro.analysis.classify.CacheAnalysis` per
geometry of the group — all sharing one
:class:`~repro.analysis.classify.AnalysisStats`, one loop forest, one
stacked engine (under the default ``batch`` engine) and one group-wide
SRB hit set — computes every geometry's required tables, and writes
them through the persistent
:class:`~repro.analysis.store.ClassificationStore` under each
geometry's own content address.  The pipeline's fused solve task then
consumes all of them in the same process.  Under
``REPRO_ANALYSIS_ENGINE=vector`` (or ``dict``) the *same*
orchestration runs with per-geometry engines — the knob selects only
the kernel, so store traffic, tables and reports stay byte-identical
across engines (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.classify import AnalysisStats, CacheAnalysis
from repro.analysis.fixpoint import solve
from repro.analysis.references import Reference, all_references
from repro.analysis.vectorized import AgeVectorEngine
from repro.cache import CacheGeometry
from repro.cfg import CFG, find_loops
from repro.errors import AnalysisError


class BatchedAnalysisStats(AnalysisStats):
    """The shared counters of one batched line-size group.

    Adds the batching counters to the flat dict the drivers
    aggregate.  Only batched groups ever instantiate this class, so
    the keys are presence-gated exactly like ``dist_batched_rows``:
    an unbatched benchmark's counter dict carries neither key.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Sibling geometries classified alongside the lead by the
        #: same stacked fixpoint pair.
        self.classify_batched_rows = 0
        #: Line-size groups this task batched (always 1 per task;
        #: sums to the sweep-wide group count).
        self.geometry_groups = 0

    def as_dict(self) -> dict[str, float]:
        return {
            **super().as_dict(),
            "classify_batched_rows": self.classify_batched_rows,
            "geometry_groups": self.geometry_groups,
        }


class StackedAgeVectorEngine(AgeVectorEngine):
    """Must/May ages of several same-line-size geometries in one pair.

    ``geometries`` must share ``block_bytes`` (identical memory-block
    stream); ``references`` maps each geometry to its
    :func:`~repro.analysis.references.all_references` result.  The
    layout (block-diagonal across geometries), the entry state (each
    geometry's own sentinel), the transfer kernel (one gather/scatter
    covering every stacked geometry per reference) and the fixpoint
    strategy (dense whole-vector propagation — see :meth:`_solve`) are
    specialised; results and the age/threshold contract are inherited.
    """

    def __init__(self, cfg: CFG, geometries,
                 references: dict[CacheGeometry,
                                  dict[int, tuple[Reference, ...]]]) -> None:
        geometries = tuple(geometries)
        if not geometries:
            raise AnalysisError("stacked engine needs at least one geometry")
        line_sizes = {geometry.block_bytes for geometry in geometries}
        if len(line_sizes) != 1:
            raise AnalysisError(
                f"stacked geometries must share one line size, got "
                f"{sorted(line_sizes)}")
        if len(set(geometries)) != len(geometries):
            raise AnalysisError("stacked geometries must be distinct")
        self._cfg = cfg
        self._geometries = geometries
        self.fixpoints_run = 0
        self.segments_blanked = 0
        count = len(geometries)
        max_ways = max(geometry.ways for geometry in geometries)
        self._ways = max_ways
        self._dtype = np.int8 if max_ways < 127 else np.int32

        # The whole layout derives from the LEAD geometry's reference
        # stream: every stacked geometry shares the line size, so the
        # memory-block sequence is identical and a sibling's set index
        # is just ``memory_block & (sets - 1)``.  Block-diagonal
        # layout: each geometry contributes exactly the segments its
        # own AgeVectorEngine would build (sets sorted, residents
        # sorted), shifted by the running global offset — built from
        # the program's *distinct* blocks, not every fetch.
        lead_refs = references[geometries[0]]
        distinct: set[int] = set()
        for block_refs in lead_refs.values():
            for reference in block_refs:
                distinct.add(reference.memory_block)
        masks = [geometry.sets - 1 for geometry in geometries]
        flat_of: list[dict[int, int]] = []
        bounds: list[dict[int, tuple[int, int]]] = []
        fills: list[tuple[int, int, int]] = []
        offset = 0
        for geometry, mask in zip(geometries, masks):
            blocks_per_set: dict[int, list[int]] = {}
            for memory_block in distinct:
                blocks_per_set.setdefault(memory_block & mask,
                                          []).append(memory_block)
            flat: dict[int, int] = {}
            bound: dict[int, tuple[int, int]] = {}
            geometry_start = offset
            for set_index in sorted(blocks_per_set):
                resident = sorted(blocks_per_set[set_index])
                bound[set_index] = (offset, offset + len(resident))
                for memory_block in resident:
                    flat[memory_block] = offset
                    offset += 1
            flat_of.append(flat)
            bounds.append(bound)
            fills.append((geometry_start, offset, geometry.ways))
        self._size = offset
        initial = np.empty(self._size, dtype=self._dtype)
        for start, stop, ways in fills:
            initial[start:stop] = ways
        self._initial = initial

        # Ages are reference-major: reference i of a CFG block owns
        # slots i*count .. i*count+count-1, so a geometry's recorded
        # ages are the strided slice [position::count].  Repeat flags
        # are per-geometry — a fetch can be a same-set repeat under one
        # set mapping and a fresh access under another — EXCEPT that a
        # fetch of the same memory block as the immediately preceding
        # fetch is a repeat under *every* set mapping (same block, same
        # set, nothing in between), so runs of sequential same-line
        # fetches collapse before the per-geometry work even starts.
        # The combined op of a reference fuses the non-repeat
        # geometries' updates into one gather/scatter over precomputed
        # index arrays (span/rep memo keyed by the participating
        # (geometry, set) signature — the arrays only depend on which
        # segments take part, not on the memory block).
        self._combined: dict[int, tuple] = {}
        self._slot_counts: dict[int, int] = {}
        span_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for block_id, block_refs in lead_refs.items():
            combined = []
            previous: list[dict[int, int]] = [{} for _ in geometries]
            previous_block = None
            for index_in_block, reference in enumerate(block_refs):
                memory_block = reference.memory_block
                if memory_block == previous_block:
                    continue  # a repeat in every stacked geometry
                previous_block = memory_block
                heads: list[int] = []
                slots: list[int] = []
                signature: list[tuple[int, int]] = []
                for position in range(count):
                    set_index = memory_block & masks[position]
                    if previous[position].get(set_index) == memory_block:
                        continue  # repeat under this set mapping only
                    previous[position][set_index] = memory_block
                    heads.append(flat_of[position][memory_block])
                    slots.append(index_in_block * count + position)
                    signature.append((position, set_index))
                if not heads:
                    continue
                key = tuple(signature)
                memo = span_memo.get(key)
                if memo is None:
                    span = np.concatenate([
                        np.arange(*bounds[position][set_index],
                                  dtype=np.intp)
                        for position, set_index in key])
                    rep = np.concatenate([
                        np.full(bounds[position][set_index][1]
                                - bounds[position][set_index][0],
                                slot, dtype=np.intp)
                        for slot, (position, set_index)
                        in enumerate(key)])
                    memo = span_memo[key] = (span, rep)
                combined.append((np.asarray(heads, dtype=np.intp),
                                 memo[0], memo[1],
                                 np.asarray(slots, dtype=np.intp)))
            self._slot_counts[block_id] = len(block_refs) * count
            self._combined[block_id] = tuple(combined)
        self._must_ages = None
        self._may_ages = None

    @property
    def geometries(self) -> tuple[CacheGeometry, ...]:
        return self._geometries

    def _initial_state(self) -> np.ndarray:
        return self._initial.copy()

    def _solve(self, join) -> dict[int, np.ndarray]:
        """Dense worklist: whole-vector joins plus the fused transfer.

        The base engine's per-set segment tracking pays off when a
        solo fixpoint is dragged along by a few slow sets; on the
        block-diagonal stacked state the bookkeeping would cross
        count× more segments per visit, while the fused transfer is
        already one gather/scatter per reference — so plain
        whole-vector propagation through the generic solver is the
        cheaper fixpoint here.  Same least fixpoint either way
        (property-tested against the per-geometry engines).
        """
        self.fixpoints_run += 1
        return solve(self._cfg, initial=self._initial_state(), join=join,
                     transfer=self._transfer, equal=np.array_equal)

    def _transfer_full(self, state: np.ndarray, block_id: int) -> None:
        """One gather/scatter per reference covers every geometry.

        Semantically identical to applying the per-geometry updates in
        sequence: the geometries' segment ranges are disjoint, so the
        fused elementwise ``seg += (seg < old)`` never mixes them, and
        a geometry where the access is at age 0 contributes only
        no-ops (``x < 0`` is everywhere false for ages).
        """
        for heads, span, rep, _slots in self._combined[block_id]:
            old = state[heads]
            values = state[span]
            np.add(values, values < old[rep], out=values, casting="unsafe")
            state[span] = values
            state[heads] = 0

    def _replay(self, in_states: dict[int, np.ndarray]
                ) -> dict[int, np.ndarray]:
        """Vectorised replay: record all stacked ages per reference.

        ``slots`` maps each participating geometry back to its
        reference-major position; repeats keep the pre-filled age 0,
        exactly like the base engine's per-op replay.
        """
        ages: dict[int, np.ndarray] = {}
        for block_id, combined in self._combined.items():
            state = in_states[block_id].copy()
            block_ages = np.zeros(self._slot_counts[block_id],
                                  dtype=self._dtype)
            for heads, span, rep, slots in combined:
                block_ages[slots] = state[heads]
                values = state[span]
                np.add(values, values < block_ages[slots][rep],
                       out=values, casting="unsafe")
                state[span] = values
                state[heads] = 0
            ages[block_id] = block_ages
        return ages

    def geometry_slice(self, position: int) -> "GeometrySlice":
        """The engine facade of one stacked geometry."""
        return GeometrySlice(self, position)


class GeometrySlice:
    """One geometry's view of a stacked engine.

    Drop-in for :class:`~repro.analysis.vectorized.AgeVectorEngine`
    where :class:`~repro.analysis.classify.CacheAnalysis` consumes it:
    ages are the strided slice of the stacked reference-major layout,
    and ``fixpoints_run`` reports the *shared* pair — the first
    analysis of a group to demand tables pays (and counts) the two
    stacked fixpoints, every sibling sees them already run.
    """

    def __init__(self, stack: StackedAgeVectorEngine,
                 position: int) -> None:
        self._stack = stack
        self._position = position
        self._count = len(stack.geometries)
        self._must: dict[int, np.ndarray] | None = None
        self._may: dict[int, np.ndarray] | None = None

    @property
    def fixpoints_run(self) -> int:
        return self._stack.fixpoints_run

    def must_ages(self) -> dict[int, np.ndarray]:
        if self._must is None:
            self._must = {
                block_id: ages[self._position::self._count]
                for block_id, ages in self._stack.must_ages().items()}
        return self._must

    def may_ages(self) -> dict[int, np.ndarray]:
        if self._may is None:
            self._may = {
                block_id: ages[self._position::self._count]
                for block_id, ages in self._stack.may_ages().items()}
        return self._may

    def guaranteed_hits(self, block_id: int, assoc: int) -> np.ndarray:
        return self.must_ages()[block_id] < assoc

    def possibly_cached(self, block_id: int, assoc: int) -> np.ndarray:
        return self.may_ages()[block_id] < assoc


class GroupSrbHits:
    """Lazily computed SRB hit set shared by a line-size group.

    The Shared Reliable Buffer is a 1-set/1-way cache: its Must
    analysis depends on the geometry only through the line size, so
    one fixpoint serves every stacked geometry.  Each geometry's
    :meth:`~repro.analysis.classify.CacheAnalysis.srb_always_hits`
    still performs its own store probe and write-through (the hit set
    is keyed per full geometry — see the note there), so store traffic
    is identical to the per-geometry path; only the fixpoint is
    shared.  The one fixpoint is counted into the group's shared stats
    on first demand.
    """

    def __init__(self, cfg: CFG, block_bytes: int,
                 stats: AnalysisStats) -> None:
        self._cfg = cfg
        self._block_bytes = block_bytes
        self._stats = stats
        self._hits: tuple[tuple[int, int], ...] | None = None

    def __call__(self) -> tuple[tuple[int, int], ...]:
        if self._hits is None:
            geometry = CacheGeometry(sets=1, ways=1,
                                     block_bytes=self._block_bytes)
            references = all_references(self._cfg, geometry)
            engine = AgeVectorEngine(self._cfg, geometry, references)
            self._hits = tuple(
                reference.key
                for block_id, refs in references.items()
                for reference, hit in zip(
                    refs, engine.guaranteed_hits(block_id, 1))
                if hit)
            self._stats.fixpoints_run += engine.fixpoints_run
        return self._hits


def grouped_analysis(cfg: CFG, geometries, mechanisms, *,
                     cache: str | None = None,
                     engine: str | None = None
                     ) -> tuple[CacheAnalysis, ...]:
    """Classify a whole line-size group; return its analyses in order.

    Every geometry's required tables (each mechanism's degraded
    associativities at that geometry's own way count) plus the SRB hit
    set are computed up front and written through the persistent store
    under the geometry's own content addresses.  All analyses share
    one :class:`~repro.analysis.classify.AnalysisStats` (the work is
    attributed to the classify task) and one loop forest.

    The engine knob selects only the fixpoint kernel: ``batch`` (the
    default) runs one stacked pair plus one SRB fixpoint for the whole
    group, ``vector``/``dict`` run the per-geometry oracle engines —
    the orchestration (which tables are computed, in which order, with
    which store traffic) is identical, which is what keeps reports
    byte-identical across engines.
    """
    from repro.pipeline.stages import required_classifications

    geometries = tuple(geometries)
    cfg.validate()
    forest = find_loops(cfg)
    stats = BatchedAnalysisStats()
    stats.classify_batched_rows = len(geometries) - 1
    stats.geometry_groups = 1
    references = {geometry: all_references(cfg, geometry)
                  for geometry in geometries}
    if engine is None:
        engine = CacheAnalysis.selected_engine()
    analyses: dict[CacheGeometry, CacheAnalysis] = {}
    if engine == "batch":
        stacked = StackedAgeVectorEngine(cfg, geometries, references)
        srb_supplier = GroupSrbHits(cfg, geometries[0].block_bytes, stats)
        for position, geometry in enumerate(geometries):
            analyses[geometry] = CacheAnalysis(
                cfg, geometry, forest, cache=cache, engine=engine,
                references=references[geometry], stats=stats,
                vector_engine=stacked.geometry_slice(position),
                srb_supplier=srb_supplier)
    else:
        for geometry in geometries:
            analyses[geometry] = CacheAnalysis(
                cfg, geometry, forest, cache=cache, engine=engine,
                references=references[geometry], stats=stats)
    for geometry in geometries:
        analysis = analyses[geometry]
        assocs, needs_srb = required_classifications(mechanisms,
                                                     geometry.ways)
        for assoc in assocs:
            analysis.classification(assoc)
        if needs_srb:
            analysis.srb_always_hits()
    return tuple(analyses[geometry] for geometry in geometries)
