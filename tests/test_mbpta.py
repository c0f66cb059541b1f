"""EVT fitting and the measurement-based estimator."""

import numpy as np
import pytest
from scipy import stats

from repro.errors import EstimationError
from repro.mbpta import (MBPTAEstimator, fit_block_maxima,
                         fit_peaks_over_threshold)
from repro.pwcet import EstimatorConfig, PWCETEstimator


class TestBlockMaxima:
    def test_fit_recovers_gumbel_quantiles(self):
        """Samples from a Gumbel: the fitted quantile must be close to
        the analytic one."""
        rng = np.random.default_rng(1)
        samples = stats.gumbel_r.rvs(loc=1000, scale=25, size=6000,
                                     random_state=rng)
        fit = fit_block_maxima(samples, block_size=50)
        target = 1e-6
        estimate = fit.quantile(target)
        exact = stats.gumbel_r.ppf(1 - target, loc=1000, scale=25)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_needs_enough_samples(self):
        with pytest.raises(EstimationError):
            fit_block_maxima(np.arange(30), block_size=50)

    def test_degenerate_sample(self):
        fit = fit_block_maxima(np.full(200, 1234.0), block_size=20)
        assert fit.quantile(1e-9) == pytest.approx(1234.0, abs=1.0)

    def test_quantile_validates_probability(self):
        fit = fit_block_maxima(np.arange(200.0), block_size=20)
        with pytest.raises(EstimationError):
            fit.quantile(0.0)

    def test_quantile_monotone(self):
        rng = np.random.default_rng(3)
        samples = stats.gumbel_r.rvs(loc=0, scale=1, size=2000,
                                     random_state=rng)
        fit = fit_block_maxima(samples, block_size=40)
        quantiles = [fit.quantile(p) for p in (1e-3, 1e-6, 1e-9)]
        assert quantiles == sorted(quantiles)


class TestPOT:
    def test_fit_recovers_exponential_tail(self):
        """Exponential data: GPD shape ~ 0, quantiles analytic."""
        rng = np.random.default_rng(2)
        samples = rng.exponential(scale=50.0, size=8000) + 500
        fit = fit_peaks_over_threshold(samples, threshold_quantile=0.9)
        assert abs(fit.shape) < 0.15
        target = 1e-5
        estimate = fit.quantile(target)
        exact = 500 + stats.expon.ppf(1 - target, scale=50.0)
        assert estimate == pytest.approx(exact, rel=0.2)

    def test_needs_enough_samples(self):
        with pytest.raises(EstimationError):
            fit_peaks_over_threshold(np.arange(20.0))

    def test_threshold_quantile_validated(self):
        with pytest.raises(EstimationError):
            fit_peaks_over_threshold(np.arange(1000.0),
                                     threshold_quantile=0.2)

    def test_body_queries_return_threshold(self):
        fit = fit_peaks_over_threshold(np.arange(1000.0))
        assert fit.quantile(0.5) == fit.threshold


class TestMBPTAEstimator:
    @pytest.fixture(scope="class")
    def result(self, loop_program):
        estimator = MBPTAEstimator(loop_program.cfg, EstimatorConfig(),
                                   name="loop_program")
        return estimator.estimate("none", 1e-9, n_samples=400, seed=7)

    def test_result_fields(self, result):
        assert result.mechanism_name == "none"
        assert result.method == "block-maxima"
        assert result.n_samples == 400

    def test_pwcet_at_least_observed_max(self, result):
        assert result.pwcet >= result.samples_max

    def test_static_pwcet_dominates_every_sample(self, result,
                                                 loop_program):
        """Each sample is a feasible path on a sampled chip, so the
        static bound at the same probability is at least their max."""
        static = PWCETEstimator(loop_program, EstimatorConfig())
        assert static.estimate("none").pwcet(1e-9) >= result.samples_max

    def test_summary_readable(self, result):
        text = result.summary()
        assert "loop_program" in text and "pWCET" in text

    def test_pot_method(self, loop_program):
        estimator = MBPTAEstimator(loop_program.cfg, EstimatorConfig())
        result = estimator.estimate("none", 1e-9, n_samples=300,
                                    method="pot", seed=8)
        assert result.method == "pot"
        assert result.pwcet >= result.samples_max

    def test_unknown_method(self, loop_program):
        estimator = MBPTAEstimator(loop_program.cfg, EstimatorConfig())
        with pytest.raises(EstimationError):
            estimator.estimate("none", 1e-9, n_samples=300,
                               method="bootstrap")

    def test_deterministic_per_seed(self, loop_program):
        estimator = MBPTAEstimator(loop_program.cfg, EstimatorConfig())
        first = estimator.estimate("rw", 1e-9, n_samples=200, seed=5)
        second = estimator.estimate("rw", 1e-9, n_samples=200, seed=5)
        assert first.pwcet == second.pwcet
