"""The concrete trace executor with mechanism hardware semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry, FaultMap, LRUCache
from repro.errors import SimulationError
from repro.ipet import TimingModel
from repro.reliability import (NoProtection, ReliableWay,
                               SharedReliableBuffer)
from repro.sim import TraceExecutor

GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)
TIMING = TimingModel()


def addresses_of_blocks(*blocks: int) -> list[int]:
    return [block * GEOMETRY.block_bytes for block in blocks]


class TestBasicExecution:
    def test_cycle_accounting(self):
        executor = TraceExecutor(GEOMETRY, TIMING, NoProtection())
        outcome = executor.run(addresses_of_blocks(0, 0, 1))
        assert outcome.fetches == 3
        assert outcome.hits == 1
        assert outcome.misses == 2
        assert outcome.cycles == 2 * TIMING.miss_cycles + TIMING.hit_cycles

    def test_cold_start_resets(self):
        executor = TraceExecutor(GEOMETRY, TIMING, NoProtection())
        executor.run(addresses_of_blocks(0))
        outcome = executor.run(addresses_of_blocks(0))  # cold again
        assert outcome.misses == 1

    def test_warm_continuation(self):
        executor = TraceExecutor(GEOMETRY, TIMING, NoProtection())
        executor.run(addresses_of_blocks(0))
        outcome = executor.run(addresses_of_blocks(0), cold_start=False)
        assert outcome.hits == 1


class TestFaultySets:
    def test_no_protection_fully_faulty_always_misses(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 0)
        executor = TraceExecutor(GEOMETRY, TIMING, NoProtection(),
                                 fault_map)
        outcome = executor.run(addresses_of_blocks(0, 0, 0, 0))
        assert outcome.hits == 0

    def test_partial_faults_reduce_capacity(self):
        fault_map = FaultMap(GEOMETRY, [(0, 0)])  # set 0: one way left
        executor = TraceExecutor(GEOMETRY, TIMING, NoProtection(),
                                 fault_map)
        # Blocks 0 and 4 both map to set 0; they now thrash.
        outcome = executor.run(addresses_of_blocks(0, 4, 0, 4))
        assert outcome.hits == 0


class TestSRBSemantics:
    def test_srb_serves_fully_faulty_set(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 0)
        executor = TraceExecutor(GEOMETRY, TIMING, SharedReliableBuffer(),
                                 fault_map)
        outcome = executor.run(addresses_of_blocks(0, 0, 0))
        assert outcome.hits == 2
        assert outcome.srb_hits == 2

    def test_srb_thrashes_across_blocks(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 0)
        executor = TraceExecutor(GEOMETRY, TIMING, SharedReliableBuffer(),
                                 fault_map)
        # Blocks 0 and 4 share faulty set 0: SRB holds only one.
        outcome = executor.run(addresses_of_blocks(0, 4, 0, 4))
        assert outcome.hits == 0

    def test_srb_not_used_for_healthy_sets(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 0)
        executor = TraceExecutor(GEOMETRY, TIMING, SharedReliableBuffer(),
                                 fault_map)
        outcome = executor.run(addresses_of_blocks(1, 1))
        assert outcome.srb_hits == 0
        assert outcome.hits == 1  # normal cache hit

    def test_srb_shared_between_faulty_sets(self):
        fault_map = (FaultMap.whole_set_faulty(GEOMETRY, 0)
                     .with_faults((1, way) for way in range(GEOMETRY.ways)))
        executor = TraceExecutor(GEOMETRY, TIMING, SharedReliableBuffer(),
                                 fault_map)
        # Alternate between the two faulty sets: the single buffer
        # cannot hold both blocks.
        outcome = executor.run(addresses_of_blocks(0, 1, 0, 1))
        assert outcome.hits == 0

    def test_within_line_spatial_hits_via_srb(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 0)
        executor = TraceExecutor(GEOMETRY, TIMING, SharedReliableBuffer(),
                                 fault_map)
        base = 0  # set 0
        outcome = executor.run([base, base + 4, base + 8, base + 12])
        assert outcome.misses == 1
        assert outcome.srb_hits == 3


class TestRWSemantics:
    def test_rw_rejects_faulty_way_zero(self):
        fault_map = FaultMap(GEOMETRY, [(2, 0)])
        with pytest.raises(SimulationError, match="way 0"):
            TraceExecutor(GEOMETRY, TIMING, ReliableWay(), fault_map)

    def test_rw_accepts_sampled_maps(self, rng):
        fault_map = FaultMap.sample(GEOMETRY, 0.9, rng, reliable_ways=1)
        executor = TraceExecutor(GEOMETRY, TIMING, ReliableWay(),
                                 fault_map)
        outcome = executor.run(addresses_of_blocks(0, 0))
        assert outcome.hits >= 1  # at least one way always works

    def test_rw_degrades_to_direct_mapped(self, rng):
        """With all non-reliable ways faulty, each set keeps MRU-only
        behaviour — repeated single-block access still hits."""
        frames = [(s, w) for s in range(GEOMETRY.sets)
                  for w in range(1, GEOMETRY.ways)]
        executor = TraceExecutor(GEOMETRY, TIMING, ReliableWay(),
                                 FaultMap(GEOMETRY, frames))
        outcome = executor.run(addresses_of_blocks(3, 3, 3))
        assert outcome.hits == 2


def _replay(geometry, timing, mechanism, fault_map, addresses):
    """Oracle: SRB sets by hand, every other fetch through
    ``LRUCache.access``; returns (cycles, hits, misses, srb_hits)."""
    cache = LRUCache(geometry, fault_map)
    srb_block = None
    cycles = hits = misses = srb_hits = 0
    for address in addresses:
        block = address // geometry.block_bytes
        set_index = block % geometry.sets
        if (mechanism.uses_srb
                and fault_map.working_ways_in_set(set_index) == 0):
            hit = srb_block == block
            srb_block = block
            srb_hits += int(hit)
        else:
            hit = cache.access(block)
        hits += int(hit)
        misses += int(not hit)
        cycles += timing.hit_cycles if hit else timing.miss_cycles
    return cycles, hits, misses, srb_hits


class TestReplayOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           pbf=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
           mechanism=st.sampled_from((NoProtection(), ReliableWay(),
                                      SharedReliableBuffer())),
           addresses=st.lists(st.integers(0, 24 * GEOMETRY.block_bytes - 1),
                              max_size=120))
    def test_run_matches_lru_replay(self, seed, pbf, mechanism, addresses):
        reliable = 1 if isinstance(mechanism, ReliableWay) else 0
        fault_map = FaultMap.sample(GEOMETRY, pbf, random.Random(seed),
                                    reliable_ways=reliable)
        executor = TraceExecutor(GEOMETRY, TIMING, mechanism, fault_map)
        outcome = executor.run(addresses)
        assert outcome.fetches == len(addresses)
        assert (outcome.cycles, outcome.hits, outcome.misses,
                outcome.srb_hits) == _replay(GEOMETRY, TIMING, mechanism,
                                             fault_map, addresses)
