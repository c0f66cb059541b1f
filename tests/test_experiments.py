"""Experiment drivers: categories and figure data."""

import pytest

from repro.experiments import (classify_category, exceedance_curves,
                               fig4_rows, format_fig3, format_fig4,
                               gain_summary, run_suite)
from repro.experiments.fig1 import compute_fig1, format_fig1
from repro.experiments.fig4 import Category
from repro.pwcet.estimator import TARGET_EXCEEDANCE

#: A fast, category-diverse subset used instead of the whole suite.
SUBSET = ("fibcall", "bs", "nsichneu", "ud")


class TestCategoryClassification:
    def test_category_1(self):
        assert (classify_category(100, 200, 100, 100)
                is Category.FULLY_MASKED)

    def test_category_2(self):
        assert (classify_category(100, 200, 150, 100)
                is Category.MRU_TEMPORAL)

    def test_category_3(self):
        assert (classify_category(100, 200, 151, 150)
                is Category.DEEP_TEMPORAL)

    def test_category_4(self):
        assert classify_category(100, 400, 300, 180) is Category.MIXED

    def test_degenerate_no_degradation(self):
        assert classify_category(100, 100, 100, 100) is Category.FULLY_MASKED


class TestRunner:
    def test_result_invariants(self):
        (result,) = run_suite(benchmarks=("bs",))
        assert result.wcet_fault_free <= result.pwcet("rw")
        assert result.pwcet("rw") <= result.pwcet("srb")
        assert result.pwcet("srb") <= result.pwcet("none")
        assert 0.0 <= result.gain("srb") <= 1.0
        assert result.target_probability == TARGET_EXCEEDANCE


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig4_rows(run_suite(benchmarks=SUBSET))

    def test_rows_cover_subset(self, rows):
        assert {row.name for row in rows} == set(SUBSET)

    def test_normalisation(self, rows):
        for row in rows:
            assert 0.0 < row.normalized_fault_free <= 1.0
            assert row.normalized_rw <= row.normalized_srb <= 1.0

    def test_known_categories(self, rows):
        by_name = {row.name: row for row in rows}
        assert by_name["nsichneu"].category is Category.FULLY_MASKED
        assert by_name["fibcall"].category is Category.MRU_TEMPORAL

    def test_gain_summary(self, rows):
        summary = gain_summary(rows)
        assert 0.0 <= summary.average_gain_srb <= 1.0
        assert summary.average_gain_rw >= summary.average_gain_srb
        assert summary.min_gain_srb_benchmark in SUBSET
        assert "paper" in summary.format()

    def test_format_contains_all_benchmarks(self, rows):
        text = format_fig4(rows)
        for name in SUBSET:
            assert name in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        (result,) = run_suite(benchmarks=("bs",))
        return result

    def test_curves_ordered(self, result):
        curves = exceedance_curves(result)
        for probability in (1e-3, 1e-9, TARGET_EXCEEDANCE):
            assert (curves["rw"].pwcet(probability)
                    <= curves["srb"].pwcet(probability)
                    <= curves["none"].pwcet(probability))

    def test_format(self, result):
        text = format_fig3(result)
        assert "Figure 3" in text
        assert "bs" in text
        assert "1e-15" in text.replace("e-15", "e-15")


class TestFig1:
    def test_compute(self):
        data = compute_fig1()
        assert data.fmm.max_fault_count == 2  # 2-way example cache
        assert data.combined.total_mass == pytest.approx(1.0, abs=1e-9)
        assert len(data.per_set) <= 4

    def test_format(self):
        text = format_fig1(compute_fig1())
        assert "Figure 1.a" in text and "Figure 1.b" in text
