"""Fault maps: construction, queries, sampling."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.cache import CacheGeometry, FaultMap
from repro.errors import ConfigurationError

GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)


class TestConstruction:
    def test_fault_free_is_empty(self):
        assert len(FaultMap.fault_free(GEOMETRY)) == 0

    def test_out_of_range_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMap(GEOMETRY, [(4, 0)])
        with pytest.raises(ConfigurationError):
            FaultMap(GEOMETRY, [(0, 2)])

    def test_duplicate_frames_collapse(self):
        fault_map = FaultMap(GEOMETRY, [(1, 0), (1, 0)])
        assert len(fault_map) == 1

    def test_whole_set_faulty(self):
        fault_map = FaultMap.whole_set_faulty(GEOMETRY, 3)
        assert fault_map.faulty_ways_in_set(3) == GEOMETRY.ways
        assert fault_map.working_ways_in_set(3) == 0
        assert fault_map.faulty_ways_in_set(0) == 0

    def test_with_faults_extends(self):
        base = FaultMap(GEOMETRY, [(0, 0)])
        extended = base.with_faults([(1, 1)])
        assert extended.is_faulty(0, 0)
        assert extended.is_faulty(1, 1)
        assert not base.is_faulty(1, 1)  # original untouched

    def test_fault_profile(self):
        fault_map = FaultMap(GEOMETRY, [(0, 0), (0, 1), (2, 1)])
        assert fault_map.fault_profile() == (2, 0, 1, 0)

    def test_equality_and_hash(self):
        a = FaultMap(GEOMETRY, [(0, 1)])
        b = FaultMap(GEOMETRY, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != FaultMap(GEOMETRY, [(1, 1)])


class TestSampling:
    def test_zero_probability_is_fault_free(self):
        rng = random.Random(1)
        fault_map = FaultMap.sample(GEOMETRY, 0.0, rng)
        assert len(fault_map) == 0

    def test_probability_one_disables_everything(self):
        rng = random.Random(1)
        fault_map = FaultMap.sample(GEOMETRY, 1.0, rng)
        assert len(fault_map) == GEOMETRY.sets * GEOMETRY.ways

    def test_reliable_ways_never_fail(self):
        rng = random.Random(7)
        for _ in range(20):
            fault_map = FaultMap.sample(GEOMETRY, 0.9, rng,
                                        reliable_ways=1)
            for set_index in range(GEOMETRY.sets):
                assert not fault_map.is_faulty(set_index, 0)
                assert fault_map.working_ways_in_set(set_index) >= 1

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMap.sample(GEOMETRY, 1.5, random.Random(0))

    def test_invalid_reliable_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMap.sample(GEOMETRY, 0.5, random.Random(0),
                            reliable_ways=3)

    @given(st.integers(0, 2 ** 31))
    def test_sampling_is_deterministic_per_seed(self, seed):
        first = FaultMap.sample(GEOMETRY, 0.3, random.Random(seed))
        second = FaultMap.sample(GEOMETRY, 0.3, random.Random(seed))
        assert first == second

    def test_statistical_rate(self):
        """With pbf = 0.25 the expected faulty count is ways*sets/4."""
        rng = random.Random(42)
        total = sum(
            len(FaultMap.sample(GEOMETRY, 0.25, rng)) for _ in range(400))
        expected = 400 * GEOMETRY.sets * GEOMETRY.ways * 0.25
        assert abs(total - expected) < 0.15 * expected


class TestProfile:
    @given(seed=st.integers(0, 2 ** 31),
           sets=st.sampled_from([1, 2, 8, 32]),
           ways=st.integers(1, 8),
           pbf=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    def test_profile_matches_a_count_over_the_frames(self, seed, sets,
                                                     ways, pbf):
        geometry = CacheGeometry(sets=sets, ways=ways, block_bytes=16)
        fault_map = FaultMap.sample(geometry, pbf, random.Random(seed))
        expected = tuple(
            sum(1 for frame_set, _way in fault_map.faulty_frames
                if frame_set == set_index)
            for set_index in range(sets))
        assert fault_map.fault_profile() == expected
        for set_index in range(sets):
            assert fault_map.faulty_ways_in_set(set_index) == \
                expected[set_index]
            assert fault_map.working_ways_in_set(set_index) == \
                ways - expected[set_index]

    @pytest.mark.parametrize("set_index", [-1, GEOMETRY.sets])
    def test_out_of_range_set_rejected(self, set_index):
        fault_map = FaultMap(GEOMETRY, [(0, 0)])
        with pytest.raises(ConfigurationError):
            fault_map.faulty_ways_in_set(set_index)
        with pytest.raises(ConfigurationError):
            fault_map.working_ways_in_set(set_index)
