"""Concrete LRU simulator: reference semantics and LRU properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry, FaultMap, LRUCache, LRUSet
from repro.errors import SimulationError
from tests.strategies import block_traces


class TestLRUSet:
    def test_miss_then_hit(self):
        lru = LRUSet(capacity=2)
        assert not lru.lookup(7)
        assert lru.lookup(7)

    def test_eviction_order_is_lru(self):
        lru = LRUSet(capacity=2)
        lru.lookup(1)
        lru.lookup(2)
        lru.lookup(1)      # order now [1, 2]
        lru.lookup(3)      # evicts 2
        assert lru.contains(1)
        assert not lru.contains(2)
        assert lru.contains(3)

    def test_zero_capacity_never_hits(self):
        lru = LRUSet(capacity=0)
        for _ in range(3):
            assert not lru.lookup(5)
        assert lru.contents == ()

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            LRUSet(capacity=-1)

    def test_age_of(self):
        lru = LRUSet(capacity=4)
        lru.lookup(1)
        lru.lookup(2)
        assert lru.age_of(2) == 0
        assert lru.age_of(1) == 1
        assert lru.age_of(9) is None

    def test_flush(self):
        lru = LRUSet(capacity=2)
        lru.lookup(1)
        lru.flush()
        assert lru.contents == ()

    @given(block_traces())
    def test_stack_property(self, trace):
        """A hit in a W-way LRU implies a hit in any larger LRU."""
        small, large = LRUSet(2), LRUSet(4)
        for block in trace:
            hit_small = small.lookup(block)
            hit_large = large.lookup(block)
            assert not (hit_small and not hit_large)

    @given(block_traces())
    def test_contents_bounded_by_capacity(self, trace):
        lru = LRUSet(3)
        for block in trace:
            lru.lookup(block)
            assert len(lru.contents) <= 3
            assert len(set(lru.contents)) == len(lru.contents)


class TestLRUCache:
    @pytest.fixture()
    def geometry(self):
        return CacheGeometry(sets=4, ways=2, block_bytes=16)

    def test_counts_hits_and_misses(self, geometry):
        cache = LRUCache(geometry)
        # 4 maps to the same set as 0 (4 % 4 == 0).
        hits = [cache.access(block) for block in (0, 0, 4)]
        assert (hits.count(True), hits.count(False)) == (1, 2)

    def test_access_accumulates_over_a_trace(self, geometry):
        cache = LRUCache(geometry)
        hits = [cache.access(block) for block in [0, 1, 0, 1, 2]]
        assert hits == [False, False, True, True, False]
        assert (hits.count(True), hits.count(False)) == (2, 3)

    def test_faulty_set_capacity_reduced(self, geometry):
        fault_map = FaultMap(geometry, [(0, 0)])
        cache = LRUCache(geometry, fault_map)
        assert cache.set_state(0).capacity == 1
        assert cache.set_state(1).capacity == 2

    def test_fully_faulty_set_never_hits(self, geometry):
        fault_map = FaultMap.whole_set_faulty(geometry, 2)
        cache = LRUCache(geometry, fault_map)
        block_in_set_2 = 2
        for _ in range(4):
            assert not cache.access(block_in_set_2)

    def test_geometry_mismatch_rejected(self, geometry):
        other = CacheGeometry(sets=8, ways=2, block_bytes=16)
        with pytest.raises(SimulationError):
            LRUCache(geometry, FaultMap.fault_free(other))

    def test_flush_empties_every_set(self, geometry):
        cache = LRUCache(geometry)
        for block in range(2 * geometry.sets):
            cache.access(block)
        cache.flush()
        assert all(cache.set_state(s).contents == ()
                   for s in range(geometry.sets))
        assert not cache.access(0)

    @settings(max_examples=50)
    @given(block_traces(max_block=30, max_length=120))
    def test_set_independence(self, trace):
        """Filtering a trace to one set leaves its behaviour unchanged."""
        geometry = CacheGeometry(sets=4, ways=2, block_bytes=16)
        full = LRUCache(geometry)
        full_results = {}
        for position, block in enumerate(trace):
            full_results[position] = full.access(block)
        for set_index in range(geometry.sets):
            isolated = LRUCache(geometry)
            for position, block in enumerate(trace):
                if geometry.set_of_block(block) != set_index:
                    continue
                assert isolated.access(block) == full_results[position]

    @settings(max_examples=30)
    @given(block_traces(max_block=30, max_length=100))
    def test_whole_cache_stack_property(self, trace):
        geometry_small = CacheGeometry(sets=4, ways=1, block_bytes=16)
        geometry_large = CacheGeometry(sets=4, ways=4, block_bytes=16)
        small, large = LRUCache(geometry_small), LRUCache(geometry_large)
        for block in trace:
            hit_small = small.access(block)
            hit_large = large.access(block)
            assert not (hit_small and not hit_large)
