"""The hardware cost model and the pWCET/cost trade-off."""

import pytest

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError
from repro.experiments import run_suite
from repro.hwcost import CellTechnology, MechanismCostModel, tradeoff_points
from repro.hwcost.model import CELL_TECHNOLOGIES
from repro.hwcost.tradeoff import format_tradeoff
from repro.reliability import (NoProtection, ReliableWay,
                               SharedReliableBuffer)

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)


class TestCellTechnology:
    def test_presets(self):
        assert CELL_TECHNOLOGIES["8T"].hardened_area_factor < \
            CELL_TECHNOLOGIES["schmitt-trigger-10T"].hardened_area_factor

    def test_rejects_shrinking_cells(self):
        with pytest.raises(ConfigurationError):
            CellTechnology("magic", hardened_area_factor=0.5)

    def test_rejects_non_positive_leakage(self):
        with pytest.raises(ConfigurationError):
            CellTechnology("magic", hardened_leakage_factor=0.0)


class TestCostModel:
    @pytest.fixture()
    def model(self):
        return MechanismCostModel(GEOMETRY)

    def test_baseline_counts(self, model):
        # data: 16*4*128 bits; tags: 16*4*(32-4-4+1); lru: 16*5
        data = 16 * 4 * 128
        tags = 16 * 4 * (32 - 4 - 4 + 1)
        lru = 16 * 5  # ceil(log2(4!)) = 5
        assert model.baseline_cells() == data + tags + lru

    def test_no_protection_is_free(self, model):
        cost = model.cost_of(NoProtection())
        assert cost.overhead_cell_equivalents == 0.0
        assert cost.area_overhead_ratio == 0.0

    def test_srb_cheaper_than_rw(self, model):
        """The paper's core cost argument (§III-A2)."""
        srb = model.cost_of(SharedReliableBuffer())
        rw = model.cost_of(ReliableWay())
        assert 0 < srb.overhead_cell_equivalents
        assert srb.overhead_cell_equivalents < rw.overhead_cell_equivalents

    def test_rw_overhead_scales_with_sets(self):
        small = MechanismCostModel(CacheGeometry(sets=8, ways=4,
                                                 block_bytes=16))
        large = MechanismCostModel(CacheGeometry(sets=32, ways=4,
                                                 block_bytes=16))
        assert (large.cost_of(ReliableWay()).overhead_cell_equivalents
                > small.cost_of(ReliableWay()).overhead_cell_equivalents)

    def test_srb_overhead_independent_of_sets(self):
        small = MechanismCostModel(CacheGeometry(sets=8, ways=4,
                                                 block_bytes=16))
        large = MechanismCostModel(CacheGeometry(sets=32, ways=4,
                                                 block_bytes=16))
        assert (large.cost_of(SharedReliableBuffer())
                .overhead_cell_equivalents
                == small.cost_of(SharedReliableBuffer())
                .overhead_cell_equivalents)

    def test_cheaper_cells_cheaper_overhead(self):
        expensive = MechanismCostModel(
            GEOMETRY, technology=CELL_TECHNOLOGIES["schmitt-trigger-10T"])
        cheap = MechanismCostModel(GEOMETRY,
                                   technology=CELL_TECHNOLOGIES["8T"])
        assert (cheap.cost_of(ReliableWay()).overhead_cell_equivalents
                < expensive.cost_of(ReliableWay())
                .overhead_cell_equivalents)

    def test_leakage_grows_with_hardening(self, model):
        none = model.cost_of(NoProtection())
        rw = model.cost_of(ReliableWay())
        assert rw.leakage_equivalents > none.leakage_equivalents


class TestTradeoff:
    @pytest.fixture(scope="class")
    def points(self):
        return tradeoff_points(run_suite(benchmarks=("fibcall", "ud")))

    def test_three_points_per_benchmark(self, points):
        assert len(points) == 6

    def test_baseline_gain_zero(self, points):
        for point in points:
            if point.mechanism == "none":
                assert point.gain == 0.0
                assert point.area_overhead == 0.0

    def test_srb_better_gain_per_area(self, points):
        """The SRB's selling point: more gain per silicon."""
        by_key = {(p.benchmark, p.mechanism): p for p in points}
        for benchmark in ("fibcall", "ud"):
            srb = by_key[(benchmark, "srb")]
            rw = by_key[(benchmark, "rw")]
            assert srb.gain_per_area_point > rw.gain_per_area_point

    def test_format(self, points):
        text = format_tradeoff(points)
        assert "gain/area" in text
        assert "fibcall" in text
