"""The batched multi-pfail distribution kernel (PR 7).

Property-tests the batched kernel bit-for-bit against the scalar
oracle over random FMMs × pfail grids × mechanisms and over every
suite benchmark's real FMMs, the degenerate shapes (all-zero penalty
sets, single-pfail batch, one-set cache, empty batch), the fault-pmf
memo, the cell-store content address, and the pipeline's batched
pfail axis.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry
from repro.experiments.runner import (fresh_results, run_benchmark,
                                      run_suite)
from repro.faults import FaultProbabilityModel
from repro.fmm import FaultMissMap
from repro.pipeline.scheduler import PipelineStats
from repro.pwcet import EstimatorConfig
from repro.pwcet.batch import (penalty_distribution_scalar,
                               penalty_distributions)
from repro.reliability import (fault_pmf_cache_stats, mechanism_by_name,
                               reset_fault_pmf_cache)
from repro.suite import EVALUATED_BENCHMARKS
from repro.sweep import run_sweep

SUBSET = ("bs", "fibcall")
MECHANISM_NAMES = ("none", "srb", "rw")

#: The quantile every comparison reads (the paper's target).
TARGET = 1e-15


@st.composite
def fmm_cases(draw):
    """A random (FMM, mechanism, pfail grid) kernel input."""
    sets = draw(st.sampled_from((1, 2, 4, 8)))
    ways = draw(st.sampled_from((2, 4)))
    geometry = CacheGeometry(sets=sets, ways=ways, block_bytes=16)
    rows = []
    for _ in range(sets):
        increments = draw(st.lists(st.integers(0, 60), min_size=ways,
                                   max_size=ways))
        row = [0]
        for increment in increments:
            row.append(row[-1] + increment)
        rows.append(tuple(row))
    mechanism_name = draw(st.sampled_from(MECHANISM_NAMES))
    fmm = FaultMissMap(geometry=geometry, rows=tuple(rows),
                       mechanism_name=mechanism_name)
    pfails = draw(st.lists(
        st.sampled_from((1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)),
        min_size=1, max_size=5, unique=True))
    return fmm, mechanism_name, tuple(pfails)


def _scalar_rows(fmm, mechanism, models, sets):
    return [penalty_distribution_scalar(fmm, mechanism, model, sets)
            for model in models]


class TestBatchedOracleIdentity:
    """Satellite 3: batched == scalar, bit for bit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=fmm_cases())
    def test_batched_matches_scalar_bitwise(self, case):
        fmm, mechanism_name, pfails = case
        mechanism = mechanism_by_name(mechanism_name)
        sets = fmm.geometry.sets
        models = [FaultProbabilityModel(geometry=fmm.geometry,
                                        pfail=pfail) for pfail in pfails]
        batched = penalty_distributions(fmm, mechanism, models, sets)
        scalar = _scalar_rows(fmm, mechanism, models, sets)
        assert len(batched) == len(scalar) == len(models)
        for batch_row, scalar_row in zip(batched, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)
            assert np.array_equal(batch_row.ccdf(), scalar_row.ccdf())
            assert batch_row.quantile_exceedance(TARGET) == \
                scalar_row.quantile_exceedance(TARGET)


class TestDegenerateShapes:
    GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)

    def _models(self, *pfails):
        return [FaultProbabilityModel(geometry=self.GEOMETRY, pfail=p)
                for p in pfails]

    def test_all_zero_penalty_sets_collapse_to_point_mass(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 0, 0),) * 4, mechanism_name="none")
        mechanism = mechanism_by_name("none")
        models = self._models(1e-4, 1e-3)
        rows = penalty_distributions(fmm, mechanism, models, 4)
        scalar = _scalar_rows(fmm, mechanism, models, 4)
        for batch_row, scalar_row in zip(rows, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)
            assert batch_row.pmf.tolist() == [1.0]

    def test_single_pfail_batch_matches_scalar(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 3, 7), (0, 0, 2), (0, 1, 1),
                                 (0, 5, 9)),
                           mechanism_name="rw")
        mechanism = mechanism_by_name("rw")
        models = self._models(1e-4)
        [row] = penalty_distributions(fmm, mechanism, models, 4)
        [scalar] = _scalar_rows(fmm, mechanism, models, 4)
        assert np.array_equal(row.pmf, scalar.pmf)

    def test_one_set_cache(self):
        geometry = CacheGeometry(sets=1, ways=2, block_bytes=16)
        fmm = FaultMissMap(geometry=geometry, rows=((0, 4, 11),),
                           mechanism_name="srb")
        mechanism = mechanism_by_name("srb")
        models = [FaultProbabilityModel(geometry=geometry, pfail=p)
                  for p in (1e-5, 1e-3)]
        rows = penalty_distributions(fmm, mechanism, models, 1)
        scalar = _scalar_rows(fmm, mechanism, models, 1)
        for batch_row, scalar_row in zip(rows, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)

    def test_empty_batch_returns_nothing(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 1, 2),) * 4, mechanism_name="none")
        assert penalty_distributions(fmm, mechanism_by_name("none"),
                                     (), 4) == []


class TestFaultPmfMemo:
    """Satellite 1: fault_pmf memoised per (mechanism, geometry,
    pfail), with live hit counters."""

    GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)

    def test_hits_and_misses_are_counted(self):
        reset_fault_pmf_cache()
        mechanism = mechanism_by_name("srb")
        model = FaultProbabilityModel(geometry=self.GEOMETRY, pfail=1e-4)
        first = mechanism.fault_pmf(model)
        second = mechanism.fault_pmf(model)
        stats = fault_pmf_cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert first == second
        # A distinct pfail is a distinct memo entry.
        mechanism.fault_pmf(
            FaultProbabilityModel(geometry=self.GEOMETRY, pfail=1e-3))
        assert fault_pmf_cache_stats().misses == 2
        reset_fault_pmf_cache()
        zeroed = fault_pmf_cache_stats()
        assert (zeroed.hits, zeroed.misses) == (0, 0)

    def test_estimator_counts_into_the_memo(self):
        from repro.pwcet import PWCETEstimator
        from repro.suite import load

        reset_fault_pmf_cache()
        estimator = PWCETEstimator(load("fibcall"), EstimatorConfig(),
                                   name="fibcall")
        estimator.estimate_all()
        assert fault_pmf_cache_stats().misses > 0


class TestCellKey:
    def test_cell_address_is_pinned(self):
        """Cells stored by earlier releases stay addressable: the
        digest of one fixed (context, mechanism, pfail) never moves."""
        from repro.pipeline.cellstore import cell_key
        from repro.solve.store import store_context

        config = EstimatorConfig()
        context = store_context("0" * 64, config.geometry, config.timing)
        assert cell_key(context, "srb", 1e-4) == (
            "485741f8a94a99e4f6a88699551753a8"
            "4799c2c4719052f992ba013d261539fd")


class TestPfailAxisPrefill:
    """One cells task computes its mechanisms' whole pfail axis and
    writes every row under its own content address."""

    @staticmethod
    def _sweep(config, pfails, stats=None):
        """The pipeline's multi-pfail path at ``config``'s geometry."""
        return run_sweep((config.geometry,), pfails=pfails,
                         benchmarks=SUBSET, config=config,
                         pipeline_stats=stats)

    def test_prefilled_rows_are_bitwise_unbatched_cells(self, tmp_path):
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        sibling_pfail = 5e-4
        stats = PipelineStats()
        self._sweep(config, (config.pfail, sibling_pfail), stats)
        assert stats.counters["dist_batched_rows"] == 3 * len(SUBSET)
        assert stats.counters["cells_computed"] == 2 * 3 * len(SUBSET)
        # The sibling pfail is served whole from the store...
        sibling = replace(config, pfail=sibling_pfail)
        with fresh_results():
            warm_stats = PipelineStats()
            warm = run_suite(sibling, benchmarks=SUBSET,
                             pipeline_stats=warm_stats)
        assert warm_stats.counters["cells_from_store"] == 3 * len(SUBSET)
        assert warm_stats.counters["cells_computed"] == 0
        assert warm_stats.counters["dist_batched_rows"] == 0
        # ...and every served estimate is bitwise what an unbatched
        # cold run computes.
        cold_config = EstimatorConfig(cache=str(tmp_path / "cold"),
                                      pfail=sibling_pfail)
        with fresh_results():
            cold = run_suite(cold_config, benchmarks=SUBSET)
        for warm_result, cold_result in zip(warm, cold):
            assert warm_result.name == cold_result.name
            for mechanism in MECHANISM_NAMES:
                assert np.array_equal(
                    warm_result.estimates[mechanism].penalty_misses.pmf,
                    cold_result.estimates[mechanism].penalty_misses.pmf)
                assert warm_result.pwcet(mechanism) == \
                    cold_result.pwcet(mechanism)

    def test_rows_already_stored_leave_the_batch(self, tmp_path):
        """Only store-missing rows are recomputed on a rerun."""
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        self._sweep(config, (config.pfail, 5e-4))
        stats = PipelineStats()
        self._sweep(config, (2e-3, config.pfail, 5e-4), stats)
        # The 5e-4 and default-pfail rows are already persisted: each
        # cells task batches nothing beyond its one new row.
        assert stats.counters["dist_batched_rows"] == 0
        assert stats.counters["cells_computed"] == 3 * len(SUBSET)
        assert stats.counters["cells_from_store"] == 2 * 3 * len(SUBSET)

    def test_scalar_engine_suite_is_identical(self):
        """Every suite benchmark's real FMMs, 3 mechanisms, a 3-pfail
        axis: each batched row is bit-equal to the scalar oracle."""
        pfails = (1e-5, 1e-4, 1e-3)
        for name in EVALUATED_BENCHMARKS:
            result = run_benchmark(name)
            for mechanism_name in MECHANISM_NAMES:
                fmm = result.estimates[mechanism_name].fmm
                mechanism = mechanism_by_name(mechanism_name)
                models = [FaultProbabilityModel(geometry=fmm.geometry,
                                                pfail=pfail)
                          for pfail in pfails]
                sets = fmm.geometry.sets
                batched = penalty_distributions(fmm, mechanism, models,
                                                sets)
                scalar = _scalar_rows(fmm, mechanism, models, sets)
                for batch_row, scalar_row in zip(batched, scalar,
                                                 strict=True):
                    assert np.array_equal(batch_row.pmf, scalar_row.pmf), \
                        (name, mechanism_name)
                    assert np.array_equal(batch_row.ccdf(),
                                          scalar_row.ccdf()), \
                        (name, mechanism_name)
