"""Edge cases and defensive branches across the library."""

import numpy as np
import pytest

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry
from repro.errors import (CFGStructureError, ConfigurationError,
                          DistributionError, SimulationError)
from repro.minic import (Compute, Function, If, Loop, Program,
                         compile_program)
from repro.pwcet import (DiscreteDistribution, EstimatorConfig,
                         PWCETEstimator)


class TestDegeneratePrograms:
    def test_zero_iteration_loop(self):
        """A loop that may run zero times still has a bounded WCET."""
        program = Program([Function("main",
                                    [Loop(0, [Compute(5)]), Compute(2)])])
        compiled = compile_program(program)
        estimator = PWCETEstimator(compiled, EstimatorConfig())
        assert estimator.fault_free_wcet() > 0
        # The worst case can still execute the header test once.
        estimate = estimator.estimate("none")
        assert estimate.pwcet() >= estimator.fault_free_wcet()

    def test_single_statement_program(self):
        program = Program([Function("main", [Compute(1)])])
        compiled = compile_program(program)
        estimator = PWCETEstimator(compiled, EstimatorConfig())
        # 10 instructions (prologue 4 + 1 + epilogue 5), 3 lines.
        assert estimator.fault_free_wcet() == 10 + 3 * 100

    def test_deeply_nested_ifs(self):
        statement = Compute(2)
        body = [statement]
        for _ in range(12):
            body = [If(body, [Compute(1)])]
        program = Program([Function("main", body)])
        compiled = compile_program(program)
        compiled.cfg.validate()
        estimator = PWCETEstimator(compiled, EstimatorConfig())
        assert estimator.estimate("rw").pwcet() >= \
            estimator.fault_free_wcet()

    def test_loop_nest_depth_five(self):
        body = [Compute(3)]
        for bound in (2, 2, 2, 2, 2):
            body = [Loop(bound, body)]
        program = Program([Function("main", body)])
        compiled = compile_program(program)
        from repro.cfg import find_loops
        forest = find_loops(compiled.cfg)
        assert max(loop.depth for loop in forest.loops.values()) == 5


class TestTinyCaches:
    def test_one_set_one_way(self):
        geometry = CacheGeometry(sets=1, ways=1, block_bytes=16)
        program = Program([Function("main", [Loop(4, [Compute(6)])])])
        compiled = compile_program(program)
        analysis = CacheAnalysis(compiled.cfg, geometry)
        table = analysis.classification()
        histogram = table.count_by_chmc()
        assert sum(histogram.values()) == compiled.cfg.instruction_count()

    def test_single_set_estimator(self):
        geometry = CacheGeometry(sets=1, ways=4, block_bytes=16)
        config = EstimatorConfig(geometry=geometry)
        program = Program([Function("main", [Loop(4, [Compute(6)])])])
        estimator = PWCETEstimator(compile_program(program), config)
        none = estimator.estimate("none").pwcet()
        rw = estimator.estimate("rw").pwcet()
        assert estimator.fault_free_wcet() <= rw <= none


class TestDistributionEdges:
    def test_point_mass_quantiles(self):
        d = DiscreteDistribution.point_mass(5)
        assert d.quantile_exceedance(1e-15) == 5
        assert d.quantile_exceedance(0.999) == 5

    def test_all_mass_at_zero(self):
        d = DiscreteDistribution.point_mass(0)
        assert d.quantile_exceedance(1e-15) == 0
        assert d.ccdf()[0] == 0.0

    def test_pmf_not_mutable_through_property(self):
        d = DiscreteDistribution.point_mass(1)
        pmf = d.pmf
        with_copy = np.array(pmf)
        assert np.array_equal(pmf, with_copy)

    def test_tiny_probability_points_survive(self):
        d = DiscreteDistribution.from_points({0: 1.0 - 1e-300, 7: 1e-300},
                                             normalized=False)
        assert d.probability_of(7) == 1e-300


class TestExtremePfail:
    def test_pfail_one_everything_faulty(self):
        config = EstimatorConfig(pfail=1.0)
        program = Program([Function("main", [Loop(4, [Compute(6)])])])
        estimator = PWCETEstimator(compile_program(program), config)
        estimate = estimator.estimate("none")
        assert estimate.fault_model.pbf == 1.0
        # With certainty every set is fully faulty: the no-protection
        # pWCET equals the deterministic all-faulty bound at any p.
        assert (estimate.pwcet(0.5) == estimate.pwcet(1e-12))

    def test_rw_immune_to_pfail_one(self):
        """With a hardened way, even pbf = 1 keeps one way per set."""
        config = EstimatorConfig(pfail=1.0)
        program = Program([Function("main", [Compute(30)])])
        estimator = PWCETEstimator(compile_program(program), config)
        # Straight-line code only needs spatial locality: RW keeps it.
        assert (estimator.estimate("rw").pwcet(0.5)
                == estimator.fault_free_wcet())


class TestGeometryEdges:
    def test_ways_exceeding_blocks_is_fine(self):
        geometry = CacheGeometry(sets=2, ways=16, block_bytes=16)
        assert geometry.total_bytes == 512

    def test_large_block_size(self):
        geometry = CacheGeometry(sets=4, ways=2, block_bytes=128)
        assert geometry.block_bits == 1024
        assert geometry.offset_bits == 7
