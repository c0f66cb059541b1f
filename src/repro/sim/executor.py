"""Trace execution on a faulty cache, with RW / SRB semantics.

This is the ground truth the static estimates must dominate: given a
concrete fault map and a structurally feasible path, the executor
replays every instruction fetch against the LRU cache — honouring the
reliability mechanism's hardware behaviour — and accumulates cycles.

Mechanism semantics (paper §III-A):

* no protection: a set with all ways faulty never hits;
* RW: way 0 of every set is hardened, so a fault map for RW simply
  never disables way 0 (use ``reliable_ways=1`` when sampling) — the
  executor itself needs no special case;
* SRB: when the referenced set has zero working ways, the lookup goes
  to the single shared buffer: hit iff the buffer currently holds the
  block, which is (re)loaded on miss.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from repro.cache import CacheGeometry, FaultMap, LRUCache
from repro.cfg import CFG, PathWalker
from repro.errors import SimulationError
from repro.ipet import TimingModel
from repro.reliability import ReliabilityMechanism
from repro.reliability.mechanism import ReliableWay


@dataclass(frozen=True)
class ExecutionOutcome:
    """Cycle/miss accounting of one simulated path."""

    cycles: int
    fetches: int
    hits: int
    misses: int
    srb_hits: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.fetches if self.fetches else 0.0


class TraceExecutor:
    """Replays fetch traces against a concrete (possibly faulty) cache."""

    def __init__(self, geometry: CacheGeometry, timing: TimingModel,
                 mechanism: ReliabilityMechanism,
                 fault_map: FaultMap | None = None) -> None:
        if fault_map is None:
            fault_map = FaultMap.fault_free(geometry)
        if isinstance(mechanism, ReliableWay):
            blocked = [frame for frame in fault_map.faulty_frames
                       if frame[1] == 0]
            if blocked:
                raise SimulationError(
                    "RW fault maps must keep way 0 fault-free (sample "
                    "with reliable_ways=1); offending frames: "
                    f"{sorted(blocked)[:4]}")
        self._geometry = geometry
        self._timing = timing
        self._cache = LRUCache(geometry, fault_map)
        #: Sets whose fetches go to the SRB (none without the SRB).
        self._srb_sets = frozenset(
            set_index for set_index in range(geometry.sets)
            if fault_map.working_ways_in_set(set_index) == 0
        ) if mechanism.uses_srb else frozenset()
        self._srb_block: int | None = None

    @property
    def cache(self) -> LRUCache:
        return self._cache

    def reset(self) -> None:
        """Cold-start state: empty cache and empty SRB."""
        self._cache.flush()
        self._srb_block = None

    def fetch(self, address: int) -> tuple[bool, bool]:
        """One instruction fetch; returns (hit, used_srb)."""
        geometry = self._geometry
        block = geometry.block_of(address)
        set_index = geometry.set_of_block(block)
        if set_index in self._srb_sets:
            hit = self._srb_block == block
            if not hit:
                self._srb_block = block
            return hit, True
        return self._cache.access_in_set(set_index, block), False

    def run(self, addresses: Iterable[int], *,
            cold_start: bool = True) -> ExecutionOutcome:
        """Replay a fetch trace; returns the outcome."""
        if cold_start:
            self.reset()
        timing = self._timing
        cycles = fetches = hits = misses = srb_hits = 0
        for address in addresses:
            hit, used_srb = self.fetch(address)
            fetches += 1
            if hit:
                hits += 1
                srb_hits += int(used_srb)
                cycles += timing.hit_cycles
            else:
                misses += 1
                cycles += timing.miss_cycles
        return ExecutionOutcome(cycles=cycles, fetches=fetches, hits=hits,
                                misses=misses, srb_hits=srb_hits)

    def run_random_path(self, cfg: CFG, rng: random.Random, *,
                        walker: PathWalker | None = None,
                        maximize_iterations: bool = False
                        ) -> ExecutionOutcome:
        """Sample a structurally feasible path of ``cfg`` and replay it."""
        if walker is None:
            walker = PathWalker(cfg)
        walk = walker.walk(rng, maximize_iterations=maximize_iterations)
        return self.run(walk.addresses)
