"""Suite-wide invariants: every benchmark, every mechanism.

These parametrised checks sweep the complete evaluation matrix (25
benchmarks x 4 mechanisms) for the structural properties the paper's
method guarantees — complementary to the golden test, which pins the
numbers themselves.
"""

import pytest

from repro.experiments import run_suite
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.suite import EVALUATED_BENCHMARKS, load


@pytest.fixture(scope="module")
def results():
    """One default-configuration suite run, keyed by benchmark."""
    return {result.name: result for result in run_suite()}


@pytest.mark.parametrize("name", EVALUATED_BENCHMARKS)
class TestOrderingInvariants:
    def test_mechanism_dominance(self, name, results):
        result = results[name]
        assert (result.wcet_fault_free <= result.pwcet("rw")
                <= result.pwcet("srb") <= result.pwcet("none"))

    def test_curve_wide_dominance(self, name, results):
        result = results[name]
        curves = {mechanism: estimate.exceedance_curve()
                  for mechanism, estimate in result.estimates.items()}
        for probability in (1e-3, 1e-7, 1e-11, 1e-15):
            assert (curves["rw"].pwcet(probability)
                    <= curves["srb"].pwcet(probability)
                    <= curves["none"].pwcet(probability))

    def test_curves_start_at_fault_free(self, name, results):
        result = results[name]
        for estimate in result.estimates.values():
            assert (estimate.exceedance_curve().values[0]
                    == result.wcet_fault_free)

    def test_penalty_mass_preserved(self, name, results):
        result = results[name]
        for estimate in result.estimates.values():
            assert abs(estimate.penalty_misses.total_mass - 1.0) < 1e-9


@pytest.mark.parametrize("name", EVALUATED_BENCHMARKS)
class TestFMMInvariants:
    def test_rw_columns_match_none(self, name, results):
        """RW changes the probability law, not the per-column FMM."""
        result = results[name]
        fmm_none = result.estimates["none"].fmm
        fmm_rw = result.estimates["rw"].fmm
        for set_index in range(fmm_rw.geometry.sets):
            for fault_count in range(fmm_rw.max_fault_count + 1):
                assert (fmm_rw.misses(set_index, fault_count)
                        == fmm_none.misses(set_index, fault_count))

    def test_srb_improves_only_last_column(self, name, results):
        result = results[name]
        fmm_none = result.estimates["none"].fmm
        fmm_srb = result.estimates["srb"].fmm
        ways = fmm_none.geometry.ways
        for set_index in range(fmm_none.geometry.sets):
            for fault_count in range(ways):
                assert (fmm_srb.misses(set_index, fault_count)
                        == fmm_none.misses(set_index, fault_count))
            assert (fmm_srb.misses(set_index, ways)
                    <= fmm_none.misses(set_index, ways))


def test_refined_srb_dominates_srb_suite_wide():
    """srb+ <= srb at its certified levels, across the whole suite."""
    config = EstimatorConfig()
    probability = 1e-9
    for name in EVALUATED_BENCHMARKS:
        estimator = PWCETEstimator(load(name), config, name=name)
        refined = estimator.estimate("srb+").pwcet(probability)
        base = estimator.estimate("srb").pwcet(probability)
        rw = estimator.estimate("rw").pwcet(probability)
        assert rw <= refined <= base, name
