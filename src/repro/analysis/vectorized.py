"""The age-vector engine: Must/May ages of a line-size group.

The dict-based Must/May analyses (:mod:`repro.analysis.must`,
:mod:`repro.analysis.may` — kept as the reference oracle) represent a
whole-cache state as ``set index -> {memory block: age}`` and run one
fixpoint per associativity.  This engine replaces both with a single
dense age vector and a single fixpoint pair, exploiting three
structural facts of LRU abstract interpretation:

**Encoding.**  Lay the distinct ``(set, memory block)`` pairs of the
program out set-major in one flat ``int8`` vector; entry ``i`` holds
the abstract age of its block, with the sentinel ``W`` (the
associativity) meaning *absent*.  Under this encoding the Must and May
transfer become the *same* array operation — access of block ``b`` in
its set's segment ``seg``::

    old = v[b]                  # absent blocks read as W
    seg += (seg < old)          # blocks younger than the old bound age
    v[b] = 0

— and the joins become elementwise lattice operations over the whole
vector: Must join (intersection, oldest age) is ``np.maximum`` because
``max(age, W) = W`` drops blocks missing on either side; May join
(union, youngest age) is ``np.minimum``.  Set independence is free:
elementwise ops never mix segments.

**One fixpoint for all associativities.**  Age truncation at ``a``
(clip everything ``>= a`` to *absent*) commutes with that transfer and
with both joins, so the least fixpoint at associativity ``a < W`` is
exactly the fixpoint at ``W`` with ages thresholded at ``a``.  The
engine therefore runs Must and May **once** at the nominal ``W`` and
answers every degraded associativity ``W-1 .. 1`` by comparing the
recorded access-time ages against ``a`` — no further fixpoints, where
the dict oracle re-runs the full dataflow per associativity.

**One fixpoint for all geometries of a line size.**  ``block_of``
depends on the geometry only through the line size, so every geometry
of one line-size group observes the identical memory-block stream —
only the set mapping (``sets``) and the sentinel (``ways``) differ.
The engine lays *all* geometries of a group out as disjoint segment
ranges of ONE concatenated vector — a block-diagonal product state::

    [ g0.set0 | g0.set1 | ... | g1.set0 | ... | gN.setS ]

— each geometry's segments carrying its own sentinel, and every
reference applies one gather/scatter update covering all geometries at
once.  No operation crosses a segment boundary, so the least fixpoint
restricted to geometry ``g`` *is* ``g``'s own least fixpoint:
per-geometry ages fall out by slicing
(:meth:`AgeVectorEngine.geometry_slice`).  A single geometry is the
group of one.  The property tests pin every slice against the dict
oracle at every associativity.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fixpoint import solve
from repro.analysis.references import Reference
from repro.cache import CacheGeometry
from repro.cfg import CFG
from repro.errors import AnalysisError


class AgeVectorEngine:
    """Must/May access ages of one or more same-line-size geometries.

    ``references`` is the per-block reference map
    (:func:`~repro.analysis.references.all_references`) of any geometry
    of the group: they share the line size, hence the memory-block
    stream, and a geometry's set index is ``memory_block & (sets - 1)``.
    The engine is lazy: each of the two fixpoints runs at most once,
    on first use, and :attr:`fixpoints_run` counts how many actually
    ran (the classification store answers warm runs without any).
    """

    def __init__(self, cfg: CFG, geometries,
                 references: dict[int, tuple[Reference, ...]]) -> None:
        geometries = tuple(geometries)
        if not geometries:
            raise AnalysisError("age-vector engine needs a geometry")
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
        count = len(geometries)
        max_ways = max(geometry.ways for geometry in geometries)
        # int8 unless the sentinel W itself would overflow it.
        self._dtype = np.int8 if max_ways < 127 else np.int32

        # Block-diagonal layout: each geometry contributes its sets in
        # ascending order, residents sorted within a set, shifted by
        # the running global offset — built from the program's
        # *distinct* blocks, not every fetch.
        distinct = {reference.memory_block
                    for block_refs in references.values()
                    for reference in block_refs}
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
        self._initial = np.empty(offset, dtype=self._dtype)
        for start, stop, ways in fills:
            self._initial[start:stop] = ways

        # Ages are reference-major: reference i of a CFG block owns
        # slots i*count .. i*count+count-1, so a geometry's recorded
        # ages are the strided slice [position::count].  A fetch whose
        # set's previous fetch *within the same CFG block* touched the
        # same memory block is a repeat: the block is at age 0 whatever
        # the incoming state, so the access is an identity transfer
        # and its recorded age is 0.  Repeat flags are per-geometry (a
        # fetch can be a same-set repeat under one set mapping and a
        # fresh access under another) EXCEPT that a fetch of the same
        # memory block as the immediately preceding fetch is a repeat
        # under *every* set mapping, so runs of sequential same-line
        # fetches collapse before the per-geometry work even starts.
        # The op of a reference fuses the non-repeat geometries'
        # updates into one gather/scatter over precomputed index
        # arrays (span/rep memo keyed by the participating (geometry,
        # set) signature — the arrays only depend on which segments
        # take part, not on the memory block).
        self._ops: dict[int, tuple] = {}
        self._slot_counts: dict[int, int] = {}
        span_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for block_id, block_refs in references.items():
            ops = []
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
                ops.append((np.asarray(heads, dtype=np.intp),
                            memo[0], memo[1],
                            np.asarray(slots, dtype=np.intp)))
            self._slot_counts[block_id] = len(block_refs) * count
            self._ops[block_id] = tuple(ops)
        self._must_ages: dict[int, np.ndarray] | None = None
        self._may_ages: dict[int, np.ndarray] | None = None

    @property
    def geometries(self) -> tuple[CacheGeometry, ...]:
        return self._geometries

    def _transfer(self, block_id: int, state: np.ndarray) -> np.ndarray:
        """One gather/scatter per reference covers every geometry.

        Semantically identical to applying the per-geometry updates in
        sequence: the geometries' segment ranges are disjoint, so the
        fused elementwise ``seg += (seg < old)`` never mixes them, and
        a geometry where the access is at age 0 contributes only
        no-ops (``x < 0`` is everywhere false for ages).
        """
        state = state.copy()
        for heads, span, rep, _slots in self._ops[block_id]:
            old = state[heads]
            values = state[span]
            np.add(values, values < old[rep], out=values, casting="unsafe")
            state[span] = values
            state[heads] = 0
        return state

    def _solve(self, join) -> dict[int, np.ndarray]:
        """Whole-vector worklist fixpoint; the IN state of every block."""
        self.fixpoints_run += 1
        return solve(self._cfg, initial=self._initial.copy(), join=join,
                     transfer=self._transfer, equal=np.array_equal)

    def _replay(self, in_states: dict[int, np.ndarray]
                ) -> dict[int, np.ndarray]:
        """Access-time age of every reference, from converged IN states.

        ``slots`` maps each participating geometry back to its
        reference-major position; repeats keep the pre-filled age 0.
        """
        ages: dict[int, np.ndarray] = {}
        for block_id, ops in self._ops.items():
            state = in_states[block_id].copy()
            block_ages = np.zeros(self._slot_counts[block_id],
                                  dtype=self._dtype)
            for heads, span, rep, slots in ops:
                block_ages[slots] = state[heads]
                values = state[span]
                np.add(values, values < block_ages[slots][rep],
                       out=values, casting="unsafe")
                state[span] = values
                state[heads] = 0
            ages[block_id] = block_ages
        return ages

    # -- results -------------------------------------------------------
    def must_ages(self) -> dict[int, np.ndarray]:
        """Upper-bound LRU ages at each fetch, reference-major."""
        if self._must_ages is None:
            self._must_ages = self._replay(self._solve(np.maximum))
        return self._must_ages

    def may_ages(self) -> dict[int, np.ndarray]:
        """Lower-bound LRU ages at each fetch, reference-major."""
        if self._may_ages is None:
            self._may_ages = self._replay(self._solve(np.minimum))
        return self._may_ages

    def geometry_slice(self, position: int) -> "GeometrySlice":
        """The per-geometry view of ``geometries[position]``."""
        return GeometrySlice(self, position)


class GeometrySlice:
    """One geometry's view of an :class:`AgeVectorEngine`.

    What :class:`~repro.analysis.classify.CacheAnalysis` consumes:
    ages are the strided slice of the reference-major layout, and
    ``fixpoints_run`` reports the *shared* pair — the first analysis
    of a group to demand tables pays (and counts) the two fixpoints,
    every sibling sees them already run.
    """

    def __init__(self, engine: AgeVectorEngine, position: int) -> None:
        self._engine = engine
        self._position = position
        self._count = len(engine.geometries)
        self._must: dict[int, np.ndarray] | None = None
        self._may: dict[int, np.ndarray] | None = None

    @property
    def fixpoints_run(self) -> int:
        return self._engine.fixpoints_run

    def must_ages(self) -> dict[int, np.ndarray]:
        """Upper-bound LRU age of each reference at its own fetch.

        ``ages[block_id][i] < a`` iff reference ``i`` is a guaranteed
        hit at associativity ``a`` — for *every* ``a`` in ``[1, W]``,
        from the single nominal-associativity fixpoint.
        """
        if self._must is None:
            self._must = {
                block_id: ages[self._position::self._count]
                for block_id, ages in self._engine.must_ages().items()}
        return self._must

    def may_ages(self) -> dict[int, np.ndarray]:
        """Lower-bound LRU age of each reference at its own fetch.

        ``ages[block_id][i] >= a`` iff reference ``i`` misses on every
        path at associativity ``a`` (always-miss).
        """
        if self._may is None:
            self._may = {
                block_id: ages[self._position::self._count]
                for block_id, ages in self._engine.may_ages().items()}
        return self._may

    def guaranteed_hits(self, block_id: int, assoc: int) -> np.ndarray:
        """Vector of always-hit verdicts, any associativity, no fixpoint."""
        return self.must_ages()[block_id] < assoc

    def possibly_cached(self, block_id: int, assoc: int) -> np.ndarray:
        """Vector of may-hit verdicts, any associativity, no fixpoint."""
        return self.may_ages()[block_id] < assoc
