"""End-to-end soundness: the static bounds dominate fault injection.

The central claim of the paper's method is that for ANY chip (fault
map) and ANY structurally feasible execution, the execution time is at
most::

    WCET_ff + memory_latency * sum_s FMM[s][f_s]

where ``f_s`` is the number of faulty ways in set ``s``.  The pWCET at
probability ``p`` is then the quantile of that bound over the chip
population.  These tests replay sampled chips and paths on the
concrete simulator (with the mechanism's hardware behaviour) and check
domination — for all three mechanisms.
"""

import random
import zlib

import pytest

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry, FaultMap
from repro.cfg import PathWalker
from repro.fmm import compute_fault_miss_map
from repro.ipet import TimingModel, compute_wcet
from repro.minic import (Call, Compute, Function, If, Loop, Program,
                         compile_program)
from repro.reliability import (MECHANISMS, NoProtection, ReliableWay,
                               SharedReliableBuffer)
from repro.sim import TraceExecutor

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)
TIMING = TimingModel()

#: Programs chosen to stress different locality regimes.
PROGRAMS = {
    "tiny_loop": Program([Function("main", [Loop(12, [Compute(9)])])],
                         name="tiny_loop"),
    "wide_loop": Program([Function("main", [Loop(6, [Compute(80)])])],
                         name="wide_loop"),
    "branchy": Program([Function("main", [
        Compute(5),
        Loop(8, [If([Compute(12)], [Compute(20)]), Compute(4)]),
    ])], name="branchy"),
    "calls": Program([
        Function("main", [Loop(5, [Call("leaf"), Compute(6)])]),
        Function("leaf", [Loop(3, [Compute(14)])]),
    ], name="calls"),
    "over_cache": Program([Function("main", [
        Loop(3, [Compute(160), If([Compute(90)])]),
    ])], name="over_cache"),
}


def deterministic_bound(wcet_ff: int, fmm, fault_map: FaultMap) -> int:
    """WCET bound for one concrete chip."""
    penalty_misses = sum(
        fmm.misses(set_index, min(fault_map.faulty_ways_in_set(set_index),
                                  fmm.max_fault_count))
        for set_index in range(fault_map.geometry.sets))
    return wcet_ff + TIMING.memory_cycles * penalty_misses


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
@pytest.mark.parametrize("mechanism", MECHANISMS,
                         ids=[m.name for m in MECHANISMS])
def test_bound_dominates_fault_injection(program_name, mechanism):
    compiled = compile_program(PROGRAMS[program_name])
    analysis = CacheAnalysis(compiled.cfg, GEOMETRY)
    wcet_ff = compute_wcet(compiled.cfg, analysis.classification(),
                           TIMING).cycles
    fmm = compute_fault_miss_map(analysis, mechanism)
    walker = PathWalker(compiled.cfg, analysis.forest)
    # crc32, not hash(): the seed must not depend on PYTHONHASHSEED,
    # so a failure reproduces in any interpreter.
    rng = random.Random(zlib.crc32(
        f"{program_name}/{mechanism.name}".encode()))

    reliable_ways = 1 if isinstance(mechanism, ReliableWay) else 0
    for trial in range(20):
        # Heavy fault rates to stress the bound far beyond realistic
        # pbf values (including fully faulty sets).
        pbf = rng.choice([0.05, 0.3, 0.7])
        fault_map = FaultMap.sample(GEOMETRY, pbf, rng,
                                    reliable_ways=reliable_ways)
        executor = TraceExecutor(GEOMETRY, TIMING, mechanism, fault_map)
        walk = walker.walk(rng, maximize_iterations=(trial % 2 == 0))
        outcome = executor.run(walk.addresses)
        bound = deterministic_bound(wcet_ff, fmm, fault_map)
        assert outcome.cycles <= bound, (
            f"{program_name}/{mechanism.name}: simulated {outcome.cycles} "
            f"cycles exceeds bound {bound} "
            f"(profile {fault_map.fault_profile()})")


@pytest.mark.parametrize("program_name", ["tiny_loop", "branchy"])
def test_whole_set_faulty_worst_case(program_name):
    """The adversarial case the paper motivates: entire sets faulty."""
    compiled = compile_program(PROGRAMS[program_name])
    analysis = CacheAnalysis(compiled.cfg, GEOMETRY)
    wcet_ff = compute_wcet(compiled.cfg, analysis.classification(),
                           TIMING).cycles
    walker = PathWalker(compiled.cfg, analysis.forest)
    for mechanism in (NoProtection(), SharedReliableBuffer()):
        fmm = compute_fault_miss_map(analysis, mechanism)
        for set_index in range(GEOMETRY.sets):
            fault_map = FaultMap.whole_set_faulty(GEOMETRY, set_index)
            executor = TraceExecutor(GEOMETRY, TIMING, mechanism,
                                     fault_map)
            walk = walker.walk(random.Random(set_index),
                               maximize_iterations=True)
            outcome = executor.run(walk.addresses)
            assert outcome.cycles <= deterministic_bound(
                wcet_ff, fmm, fault_map)


def test_srb_bound_tighter_than_none_for_full_sets():
    """For an entirely faulty set the SRB's FMM column must save the
    spatial-locality misses that the no-protection column pays."""
    compiled = compile_program(PROGRAMS["wide_loop"])
    analysis = CacheAnalysis(compiled.cfg, GEOMETRY)
    fmm_none = compute_fault_miss_map(analysis, NoProtection())
    fmm_srb = compute_fault_miss_map(analysis, SharedReliableBuffer())
    ways = GEOMETRY.ways
    improved = sum(
        fmm_srb.misses(s, ways) < fmm_none.misses(s, ways)
        for s in range(GEOMETRY.sets)
        if fmm_none.misses(s, ways) > 0)
    assert improved > 0


def test_exceedance_probability_calibrated_by_monte_carlo():
    """P(penalty > pWCET-quantile) estimated by Monte-Carlo must not
    exceed the target probability (within sampling noise).

    Uses an artificially large pfail so the tail is reachable with
    few samples.
    """
    from repro.pwcet import EstimatorConfig, PWCETEstimator
    compiled = compile_program(PROGRAMS["tiny_loop"])
    config = EstimatorConfig(pfail=2e-3)  # pbf ~ 0.226
    estimator = PWCETEstimator(compiled, config)
    estimate = estimator.estimate("none")
    target = 0.05
    threshold = estimate.pwcet(target)

    fmm = estimator.fault_miss_map("none")
    wcet_ff = estimator.fault_free_wcet()
    model = config.fault_model()
    rng = random.Random(99)
    exceed = 0
    samples = 4000
    for _ in range(samples):
        fault_map = FaultMap.sample(GEOMETRY, model.pbf, rng)
        if deterministic_bound(wcet_ff, fmm, fault_map) > threshold:
            exceed += 1
    observed = exceed / samples
    # The bound is conservative, so observed exceedance of the *bound*
    # at the quantile must be <= target plus noise (3 sigma).
    import math
    sigma = math.sqrt(target * (1 - target) / samples)
    assert observed <= target + 3 * sigma
