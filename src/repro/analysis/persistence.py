"""Persistence analysis: first-miss classification by conflict counting.

A memory block is *persistent* in a scope (a loop, or the whole
program) if it can never be evicted once loaded during that scope.
With LRU this is guaranteed when the number of distinct memory blocks
mapping to its set that are accessed anywhere inside the scope does not
exceed the set's associativity — the block's age can then never reach
the eviction bound.  This conflict-counting criterion is coarser than
age-tracking persistence but unconditionally sound (it avoids the known
unsoundness of the original ACS-based persistence update), and it is
naturally parameterised by the degraded associativity.

A reference persistent in scope ``L`` is classified first-miss with at
most one miss per entry into ``L``; we always report the *outermost*
scope in which the reference is persistent (fewest entries, tightest
bound).

The conflict maps are a pure function of one reference map (a line
size and a set count) and the loop forest, not of the way count.  A
:class:`PersistenceAnalysis` is built over its analysis' reference map
and counts conflicts on its first query (a warm run, which decodes
every table from the store, never asks).  Nothing is memoised at module
level: :func:`~repro.analysis.geometry_batch.grouped_analysis` hands
the analyses of one set count a single instance, so they share one pair
of conflict maps, and the maps die with the solve task's analyses.
"""

from __future__ import annotations

from functools import cached_property

from repro.analysis.chmc import GLOBAL_SCOPE
from repro.analysis.references import Reference
from repro.cfg import CFG, LoopForest, find_loops


def conflict_maps(cfg: CFG,
                  references: dict[int, tuple[Reference, ...]],
                  forest: LoopForest) -> tuple[dict, dict]:
    """Distinct blocks per set: program-wide, and per loop header."""
    # Distinct (set, memory block) pairs per CFG block first: scope
    # aggregation then touches each distinct pair once per scope
    # instead of walking every instruction fetch again.
    per_block = {
        block_id: {(reference.set_index, reference.memory_block)
                   for reference in refs}
        for block_id, refs in references.items()}

    def distinct_blocks(block_ids) -> dict[int, set[int]]:
        per_set: dict[int, set[int]] = {}
        for block_id in block_ids:
            for set_index, memory_block in per_block[block_id]:
                per_set.setdefault(set_index, set()).add(memory_block)
        return per_set

    global_conflicts = {
        set_index: len(blocks)
        for set_index, blocks in distinct_blocks(cfg.block_ids()).items()
    }
    loop_conflicts = {
        header: {set_index: len(blocks)
                 for set_index, blocks
                 in distinct_blocks(loop.body).items()}
        for header, loop in forest.loops.items()
    }
    return global_conflicts, loop_conflicts


class PersistenceAnalysis:
    """Per-scope conflict counts of one reference map; scope queries."""

    def __init__(self, cfg: CFG,
                 references: dict[int, tuple[Reference, ...]],
                 forest: LoopForest | None = None) -> None:
        self._cfg = cfg
        self._references = references
        self._forest = forest if forest is not None else find_loops(cfg)

    @cached_property
    def _conflicts(self) -> tuple[dict, dict]:
        return conflict_maps(self._cfg, self._references, self._forest)

    @property
    def forest(self) -> LoopForest:
        return self._forest

    def global_conflicts(self, set_index: int) -> int:
        """Distinct blocks competing for ``set_index`` program-wide."""
        return self._conflicts[0].get(set_index, 0)

    def loop_conflicts(self, header: int, set_index: int) -> int:
        """Distinct blocks competing for ``set_index`` inside a loop."""
        return self._conflicts[1][header].get(set_index, 0)

    def scope_of(self, reference: Reference, assoc: int) -> int | None:
        """Outermost persistence scope of ``reference`` at ``assoc``.

        Returns :data:`GLOBAL_SCOPE`, a loop header id, or ``None``
        when the reference is persistent nowhere.
        """
        if assoc <= 0:
            return None
        global_conflicts, loop_conflicts = self._conflicts
        if global_conflicts.get(reference.set_index, 0) <= assoc:
            return GLOBAL_SCOPE
        chain = self._forest.loops_containing(reference.block_id)
        for loop in reversed(chain):  # outermost first
            conflicts = loop_conflicts[loop.header].get(
                reference.set_index, 0)
            if conflicts <= assoc:
                return loop.header
        return None
