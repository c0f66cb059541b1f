"""Concrete set-associative LRU cache simulator.

This is the ground-truth model that the static analyses must over-
approximate.  It supports reduced per-set capacity (disabled ways) so
the validation harness can replay faulty configurations, matching the
paper's observation that with LRU the *position* of faulty ways in a
set is irrelevant — only their number matters (the LRU stack shrinks).
"""

from __future__ import annotations

from repro.cache.faultmap import FaultMap
from repro.cache.geometry import CacheGeometry
from repro.errors import SimulationError


class LRUSet:
    """One cache set as an LRU stack of memory-block tags.

    ``capacity`` is the number of *working* ways: a set with faulty
    ways simply has a shorter stack (the paper's fault model).
    A capacity of zero models an entirely faulty set: every lookup
    misses and nothing is retained.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise SimulationError(f"negative set capacity {capacity}")
        self._capacity = capacity
        self._stack: list[int] = []  # index 0 = most recently used

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def contents(self) -> tuple[int, ...]:
        """Blocks from MRU to LRU."""
        return tuple(self._stack)

    def lookup(self, block: int) -> bool:
        """Access ``block``; return True on hit.  Updates LRU order."""
        if self._capacity == 0:
            return False
        try:
            position = self._stack.index(block)
        except ValueError:
            self._stack.insert(0, block)
            del self._stack[self._capacity:]
            return False
        del self._stack[position]
        self._stack.insert(0, block)
        return True

    def contains(self, block: int) -> bool:
        """Non-destructive membership test."""
        return block in self._stack

    def age_of(self, block: int) -> int | None:
        """LRU-stack age (0 = MRU) of ``block``, or ``None`` if absent."""
        try:
            return self._stack.index(block)
        except ValueError:
            return None

    def flush(self) -> None:
        """Empty the set (e.g. boot-time state)."""
        self._stack.clear()


class LRUCache:
    """Whole-cache concrete simulator with optional fault map.

    Every access returns whether it hit; callers that need hit and
    miss counts (:class:`~repro.sim.executor.TraceExecutor`) count
    those booleans themselves.
    """

    def __init__(self, geometry: CacheGeometry,
                 fault_map: FaultMap | None = None) -> None:
        if fault_map is None:
            fault_map = FaultMap.fault_free(geometry)
        if fault_map.geometry != geometry:
            raise SimulationError("fault map geometry mismatch")
        self._geometry = geometry
        self._fault_map = fault_map
        self._sets = [LRUSet(fault_map.working_ways_in_set(s))
                      for s in range(geometry.sets)]

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    @property
    def fault_map(self) -> FaultMap:
        return self._fault_map

    def set_state(self, set_index: int) -> LRUSet:
        """Direct access to one set (read-mostly, for tests)."""
        return self._sets[set_index]

    def access(self, block: int) -> bool:
        """Fetch memory block ``block``; returns True on hit."""
        return self.access_in_set(self._geometry.set_of_block(block), block)

    def access_in_set(self, set_index: int, block: int) -> bool:
        """Fetch ``block``, whose set the caller already computed."""
        return self._sets[set_index].lookup(block)

    def flush(self) -> None:
        """Invalidate all sets."""
        for cache_set in self._sets:
            cache_set.flush()
