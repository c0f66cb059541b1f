"""The penalty-convolution kernel against exact rationals.

Every row's quantiles must equal those of the same convolution in
``fractions.Fraction`` arithmetic (``tests/oracles.py``) on random
FMM-shaped inputs and on the degenerate shapes (all-zero penalty
sets, single-pfail batch, one-set cache, empty batch); an FMM too
small for the mechanism or the set count is refused.  Rows capped at
an exceedance level are exact at and above it, bitwise the uncapped
rows below their cap, and refolded when the cap fails its
certificate; the top-down quantile scan lands where a search of the
full ccdf does.  Also pins the cell-store content address and the
pipeline's batched pfail axis.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError
from repro.experiments.runner import run_suite
from repro.faults import FaultProbabilityModel
from repro.fmm import FaultMissMap
from repro.pipeline.scheduler import PipelineStats
from repro.pwcet import EstimatorConfig
from repro.pwcet import batch
from repro.pwcet import distribution as distribution_module
from repro.pwcet.batch import penalty_distributions
from repro.pwcet.distribution import DiscreteDistribution
from repro.reliability import mechanism_by_name
from repro.sweep import run_sweep
from tests.oracles import exact_penalty_distribution, exact_quantiles

SUBSET = ("bs", "fibcall")
MECHANISM_NAMES = ("none", "srb", "rw")

#: The exceedance levels every row is read at: 1e-1 .. 1e-15.
LEVELS = tuple(10.0 ** -exponent for exponent in range(1, 16))


@st.composite
def fmm_cases(draw):
    """A random (FMM, mechanism, pfail batch) kernel input."""
    sets = draw(st.sampled_from((1, 2, 4, 8)))
    ways = draw(st.sampled_from((2, 4)))
    geometry = CacheGeometry(sets=sets, ways=ways, block_bytes=16)
    rows = []
    for _ in range(sets):
        increments = draw(st.lists(st.integers(0, 40), min_size=ways,
                                   max_size=ways))
        row = [0]
        for increment in increments:
            row.append(row[-1] + increment)
        rows.append(tuple(row))
    mechanism_name = draw(st.sampled_from(MECHANISM_NAMES))
    fmm = FaultMissMap(geometry=geometry, rows=tuple(rows),
                       mechanism_name=mechanism_name)
    pfails = draw(st.lists(st.floats(1e-4, 1e-2), min_size=1,
                           max_size=3, unique=True))
    return fmm, mechanism_name, tuple(pfails)


def assert_exact(fmm, mechanism, models, sets):
    """Each kernel row's quantiles equal the exact-rational ones."""
    rows = penalty_distributions(fmm, mechanism, models, sets)
    assert len(rows) == len(models)
    for row, model in zip(rows, models):
        exact = exact_penalty_distribution(fmm, mechanism, model, sets)
        assert [row.quantile_exceedance(level) for level in LEVELS] \
            == exact_quantiles(exact, LEVELS)
    return rows


class TestExactRationalContract:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=fmm_cases())
    def test_quantiles_equal_exact_rationals(self, case):
        fmm, mechanism_name, pfails = case
        models = [FaultProbabilityModel(geometry=fmm.geometry,
                                        pfail=pfail) for pfail in pfails]
        assert_exact(fmm, mechanism_by_name(mechanism_name), models,
                     fmm.geometry.sets)


    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=fmm_cases(), exponent=st.integers(3, 15))
    def test_capped_rows_are_exact_at_and_above_their_level(self, case,
                                                            exponent):
        """A capped row is the law of ``min(X, cap)``: bitwise the
        uncapped row below its cap, ``P(X >= cap)`` in its last bin,
        and its quantiles at levels >= ``exceedance`` are exact."""
        fmm, mechanism_name, pfails = case
        mechanism = mechanism_by_name(mechanism_name)
        models = [FaultProbabilityModel(geometry=fmm.geometry,
                                        pfail=pfail) for pfail in pfails]
        exceedance = 10.0 ** -exponent
        sets = fmm.geometry.sets
        capped = penalty_distributions(fmm, mechanism, models, sets,
                                       exceedance=exceedance)
        full = penalty_distributions(fmm, mechanism, models, sets)
        levels = [level for level in LEVELS if level >= exceedance]
        for row, uncapped, model in zip(capped, full, models):
            cap = row.support_max
            assert cap <= uncapped.support_max
            assert row.pmf[:cap].tobytes() == uncapped.pmf[:cap].tobytes()
            exact = exact_penalty_distribution(fmm, mechanism, model,
                                               sets)
            lumped = sum(mass for value, mass in exact.items()
                         if value >= cap)
            assert row.pmf[cap] == pytest.approx(float(lumped), rel=1e-9)
            assert [row.quantile_exceedance(level) for level in levels] \
                == exact_quantiles(exact, levels)

    def test_a_cap_below_the_level_refolds_uncapped(self, monkeypatch):
        """The cap is certified, never trusted: a bound that is too
        small leaves more than ``exceedance`` in the last bin, and the
        call is refolded at full width."""
        geometry = CacheGeometry(sets=4, ways=2, block_bytes=16)
        fmm = FaultMissMap(geometry=geometry,
                           rows=((0, 3, 7), (0, 0, 2), (0, 1, 1),
                                 (0, 5, 9)),
                           mechanism_name="none")
        mechanism = mechanism_by_name("none")
        models = [FaultProbabilityModel(geometry=geometry, pfail=p)
                  for p in (1e-4, 1e-3)]
        folds = []
        fold = batch._fold

        def spy(penalties, weights, cap):
            folds.append(cap)
            return fold(penalties, weights, cap)

        monkeypatch.setattr(batch, "_chernoff_cap", lambda *_: 5)
        monkeypatch.setattr(batch, "_fold", spy)
        rows = penalty_distributions(fmm, mechanism, models, 4,
                                     exceedance=1e-15)
        assert folds == [5, fmm.total_worst_misses()]
        for row, model in zip(rows, models):
            assert row.support_max == fmm.total_worst_misses()
            exact = exact_penalty_distribution(fmm, mechanism, model, 4)
            assert [row.quantile_exceedance(level) for level in LEVELS] \
                == exact_quantiles(exact, LEVELS)


@st.composite
def sampled_pmfs(draw):
    """A pmf with mass spread over many orders of magnitude, and the
    levels to read it at: some of its own tail values, which only a
    bitwise-equal suffix sum lands on, plus random ones."""
    masses = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-30, 1.0),
                  st.integers(1, 40).map(lambda e: 10.0 ** -e)),
        min_size=1, max_size=40))
    distribution = DiscreteDistribution(masses, normalized=False)
    tails = [float(tail) for tail in distribution.ccdf()
             if 0.0 < tail < 1.0]
    levels = draw(st.lists(st.sampled_from(tails), max_size=5)) \
        if tails else []
    levels += draw(st.lists(st.floats(1e-35, 0.999), min_size=1,
                            max_size=5))
    return masses, levels


class TestQuantileScan:
    @settings(max_examples=200, deadline=None)
    @given(case=sampled_pmfs(), chunk=st.integers(1, 7))
    def test_top_down_scan_equals_a_ccdf_search(self, case, chunk):
        """The chunked scan stops where ``searchsorted`` on the full
        ccdf lands, for any chunk size, also on a distribution whose
        ccdf is cached."""
        masses, levels = case
        reference = DiscreteDistribution(masses, normalized=False)
        ccdf = reference.ccdf()
        with mock.patch.object(distribution_module, "_SCAN_CHUNK", chunk):
            for level in levels:
                expected = len(ccdf) - int(np.searchsorted(
                    ccdf[::-1], level, side="right"))
                scanned = DiscreteDistribution(masses, normalized=False)
                answer = scanned.quantile_exceedance(level)
                assert type(answer) is int and answer == expected
                assert reference.quantile_exceedance(level) == expected


class TestDegenerateShapes:
    GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)

    def _models(self, *pfails):
        return [FaultProbabilityModel(geometry=self.GEOMETRY, pfail=p)
                for p in pfails]

    def test_all_zero_penalty_sets_collapse_to_point_mass(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 0, 0),) * 4, mechanism_name="none")
        rows = assert_exact(fmm, mechanism_by_name("none"),
                            self._models(1e-4, 1e-3), 4)
        for row in rows:
            assert row.pmf.tolist() == [1.0]

    def test_single_pfail_batch_matches_scalar(self):
        """A one-row call is exact, and bitwise the same row of a
        wider batch: rows never mix."""
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 3, 7), (0, 0, 2), (0, 1, 1),
                                 (0, 5, 9)),
                           mechanism_name="rw")
        mechanism = mechanism_by_name("rw")
        [row] = assert_exact(fmm, mechanism, self._models(1e-4), 4)
        # RW's fault counts stop at W - 1: the last column never costs.
        assert row.support_max == 3 + 0 + 1 + 5
        batch = penalty_distributions(fmm, mechanism,
                                      self._models(1e-2, 1e-4, 1e-3), 4)
        assert np.array_equal(batch[1].pmf, row.pmf)
        assert np.array_equal(batch[1].ccdf(), row.ccdf())

    def test_one_set_cache(self):
        geometry = CacheGeometry(sets=1, ways=2, block_bytes=16)
        fmm = FaultMissMap(geometry=geometry, rows=((0, 4, 11),),
                           mechanism_name="srb")
        mechanism = mechanism_by_name("srb")
        models = [FaultProbabilityModel(geometry=geometry, pfail=p)
                  for p in (1e-5, 1e-3)]
        rows = assert_exact(fmm, mechanism, models, 1)
        for row, model in zip(rows, models):
            pmf = mechanism.fault_pmf(model)
            assert row.pmf[[0, 4, 11]].tolist() == [pmf[0], pmf[1],
                                                   pmf[2]]

    def test_empty_batch_returns_nothing(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 1, 2),) * 4, mechanism_name="none")
        assert penalty_distributions(fmm, mechanism_by_name("none"),
                                     (), 4) == []

    def test_fault_count_past_the_fmm_columns_is_refused(self):
        # A 2-way FMM of RW's W columns has no all-faulty column,
        # which the unprotected cache needs.
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 1),) * 4, mechanism_name="rw")
        with pytest.raises(ConfigurationError, match="fault count 2"):
            penalty_distributions(fmm, mechanism_by_name("none"),
                                  self._models(1e-4), 4)

    def test_sets_past_the_fmm_rows_are_refused(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 1, 2),) * 4, mechanism_name="none")
        with pytest.raises(ConfigurationError, match="set index 4"):
            penalty_distributions(fmm, mechanism_by_name("none"),
                                  self._models(1e-4), 5)


class TestCellKey:
    def test_cell_address_is_pinned(self):
        """Cells stored by earlier releases of this schema stay
        addressable: the digest of one fixed (context, mechanism,
        pfail, mode) moves only with ``CELL_SCHEMA_VERSION`` (v6
        here)."""
        from repro.pipeline.cellstore import cell_key
        from repro.solve.store import store_context

        config = EstimatorConfig()
        context = store_context("0" * 64, config.geometry, config.timing)
        assert cell_key(context, "srb", 1e-4, False) == (
            "19f89465ab1f64df4b6c6e86afe52e32"
            "6f4ffcd3c3dfefaf4846735c8bf498b8")


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
