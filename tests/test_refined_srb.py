"""The refined SRB analysis (future work of paper §III-B2/§VI)."""

import random

import pytest

from repro.analysis import CacheAnalysis
from repro.analysis.references import all_references
from repro.cache import CacheGeometry, FaultMap
from repro.cfg import PathWalker
from repro.errors import EstimationError
from repro.fmm import compute_fault_miss_map
from repro.ipet import TimingModel
from repro.minic import Compute, Function, Loop, Program, compile_program
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.reliability import SharedReliableBuffer, mechanism_by_name
from repro.reliability.refined_srb import (RefinedSharedReliableBuffer,
                                           excluded_probability,
                                           refined_srb_always_hit_references)
from repro.sim import TraceExecutor

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)


@pytest.fixture(scope="module")
def single_block_loop():
    """A loop whose body keeps exactly one line per set alive."""
    program = Program([Function("main", [Loop(20, [Compute(30)])])],
                      name="single_block_loop")
    return compile_program(program)


class TestRegistry:
    def test_lookup(self):
        mechanism = mechanism_by_name("srb+")
        assert isinstance(mechanism, RefinedSharedReliableBuffer)
        assert isinstance(mechanism, SharedReliableBuffer)

    def test_same_hardware_distribution(self):
        """srb+ changes the analysis, not the fault distribution."""
        from repro.faults import FaultProbabilityModel
        model = FaultProbabilityModel(geometry=GEOMETRY, pfail=1e-4)
        base = SharedReliableBuffer().fault_pmf(model)
        refined = RefinedSharedReliableBuffer().fault_pmf(model)
        assert base == refined


class TestExcludedProbability:
    def test_value_at_paper_parameters(self):
        from repro.faults import FaultProbabilityModel
        model = FaultProbabilityModel(geometry=GEOMETRY, pfail=1e-4)
        p_not_a = excluded_probability(model, 16)
        # ~ C(16,2) * pwf(4)^2 at these parameters.
        q = model.pwf(4)
        assert p_not_a == pytest.approx(120 * q * q, rel=0.01)

    def test_zero_when_no_faults(self):
        from repro.faults import FaultProbabilityModel
        model = FaultProbabilityModel(geometry=GEOMETRY, pfail=0.0)
        assert excluded_probability(model, 16) == 0.0


class TestPerSetMustAnalysis:
    def test_loop_block_protected_across_iterations(self,
                                                    single_block_loop):
        """Unlike the shared SRB, the private view keeps a loop's only
        line per set alive across iterations."""
        cfg = single_block_loop.cfg
        references = all_references(cfg, GEOMETRY)
        protected_any = False
        for set_index in range(GEOMETRY.sets):
            protected = refined_srb_always_hit_references(
                cfg, references, set_index)
            from repro.reliability import srb_always_hit_references
            shared = srb_always_hit_references(cfg, GEOMETRY)
            shared_in_set = {
                key for key in shared
                for block in [cfg.block(key[0])]
                if GEOMETRY.set_of(block.instructions[key[1]].address)
                == set_index}
            assert shared_in_set <= protected
            if len(protected) > len(shared_in_set):
                protected_any = True
        assert protected_any

    def test_refined_superset_of_shared(self, call_program):
        from repro.reliability import srb_always_hit_references
        shared = srb_always_hit_references(call_program.cfg, GEOMETRY)
        references = all_references(call_program.cfg, GEOMETRY)
        refined_union = set()
        for set_index in range(GEOMETRY.sets):
            refined_union |= refined_srb_always_hit_references(
                call_program.cfg, references, set_index)
        assert shared <= refined_union


class TestFMM:
    def test_refined_column_at_most_base(self, loop_program):
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        base = compute_fault_miss_map(analysis, SharedReliableBuffer())
        refined = compute_fault_miss_map(analysis,
                                         RefinedSharedReliableBuffer())
        for set_index in range(GEOMETRY.sets):
            for fault_count in range(GEOMETRY.ways + 1):
                assert (refined.misses(set_index, fault_count)
                        <= base.misses(set_index, fault_count))


class TestEstimator:
    def test_sandwiched_between_rw_and_srb(self):
        from repro.suite import load
        estimator = PWCETEstimator(load("ud"), EstimatorConfig())
        probability = 1e-9
        rw = estimator.estimate("rw").pwcet(probability)
        refined = estimator.estimate("srb+").pwcet(probability)
        srb = estimator.estimate("srb").pwcet(probability)
        assert rw <= refined <= srb

    def test_refuses_targets_below_correction(self, loop_program):
        estimator = PWCETEstimator(loop_program, EstimatorConfig())
        estimate = estimator.estimate("srb+")
        assert estimate.exceedance_correction > 0
        with pytest.raises(EstimationError, match="excluded mass"):
            estimate.pwcet(1e-15)
        assert estimate.pwcet(1e-9) > 0

    def test_curve_lifted_by_correction(self, loop_program):
        estimator = PWCETEstimator(loop_program, EstimatorConfig())
        refined_curve = estimator.estimate("srb+").exceedance_curve()
        correction = estimator.estimate("srb+").exceedance_correction
        # The curve never reports an exceedance below the correction.
        assert float(refined_curve.probabilities[-1]) >= correction

    def test_runs_no_shared_srb_fixpoint(self, tmp_path):
        """The refined filter never reads the shared SRB hit set, so
        srb+ runs only the Must/May pair and writes no SRB row."""
        from repro.analysis.geometry_batch import required_classifications
        from repro.suite import load

        assert required_classifications(("srb+",), 4) == ((4, 3, 2, 1),
                                                          False)
        assert required_classifications(("srb+", "srb"), 4)[1]
        estimator = PWCETEstimator(
            load("fibcall"), EstimatorConfig(cache=str(tmp_path)),
            name="fibcall")
        estimator.estimate("srb+")
        counters = estimator.stats.counters
        assert counters["fixpoints_run"] == 2
        assert counters["classify_store_writes"] == counters["tables_built"]


class TestSoundnessUnderEventA:
    def test_bound_holds_with_at_most_one_faulty_set(self,
                                                     single_block_loop):
        """Condition of the refinement: at most one set entirely
        faulty.  Simulated time must respect the refined bound."""
        timing = TimingModel()
        mechanism = RefinedSharedReliableBuffer()
        analysis = CacheAnalysis(single_block_loop.cfg, GEOMETRY)
        from repro.ipet import compute_wcet
        wcet_ff = compute_wcet(single_block_loop.cfg,
                               analysis.classification(), timing).cycles
        fmm = compute_fault_miss_map(analysis, mechanism)
        walker = PathWalker(single_block_loop.cfg, analysis.forest)
        rng = random.Random(23)
        for trial in range(30):
            # One fully faulty set + random partial faults elsewhere.
            full_set = rng.randrange(GEOMETRY.sets)
            frames = [(full_set, way) for way in range(GEOMETRY.ways)]
            for set_index in range(GEOMETRY.sets):
                if set_index == full_set:
                    continue
                for way in range(GEOMETRY.ways):
                    if rng.random() < 0.3 and way > 0:
                        frames.append((set_index, way))
            fault_map = FaultMap(GEOMETRY, frames)
            # Keep event A: no second fully faulty set by construction
            # (way 0 untouched outside full_set).
            walk = walker.walk(rng, maximize_iterations=(trial % 2 == 0))
            outcome = TraceExecutor(GEOMETRY, timing, mechanism,
                                    fault_map).run(walk.addresses)
            bound = wcet_ff + timing.memory_cycles * sum(
                fmm.misses(s, fault_map.faulty_ways_in_set(s))
                for s in range(GEOMETRY.sets))
            assert outcome.cycles <= bound
