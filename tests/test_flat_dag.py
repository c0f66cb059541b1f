"""The flat estimation DAG: fused chains, one polytope, one pool.

Covers the scheduler's fused classify → solve chains (the dependency's
value never leaves its process), and the sweep built as one DAG:
byte-identical reports at any worker count with and without the
persistent stores, identical fixpoint and ILP counts with and without
them, and honest per-run task and work counters.
"""

from __future__ import annotations

import threading
import weakref

import pytest

from repro.errors import PipelineError, SolverError
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pipeline.resilience import CASCADED, RetryPolicy, TaskFailure
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.suite import load
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

#: Two line sizes x two capacities: two stacked groups of two.
GRID = geometry_grid(sizes=(512, 1024), ways=(2,), lines=(16, 32))
BENCHMARKS = ("fibcall", "bs")
PFAILS = (1e-4, 1e-3)
FAST = RetryPolicy(sleep=lambda seconds: None)


def make_lock():
    """Pool task body whose value cannot be pickled."""
    return threading.Lock()


def use_lock(lock):
    return type(lock).__name__


def fail_solver(_value):
    raise SolverError("fused step failed")


class Analyses:
    """Stands in for a classify task's analyses (weakly referenceable)."""


#: Weak references to every :class:`Analyses` this process made.
MADE: list[weakref.ref] = []


def make_analyses():
    analyses = Analyses()
    MADE.append(weakref.ref(analyses))
    return analyses


def solve_analyses(_analyses):
    return "solved"


def live_analyses(*_solved):
    return sum(ref() is not None for ref in MADE)


class TestFusedChains:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fused_value_never_crosses_a_process(self, workers):
        scheduler = PipelineScheduler(workers=workers, retry=FAST)
        scheduler.add("make", make_lock, stage="classify", pool=True)
        scheduler.add("use", use_lock, deps=("make",), stage="solve",
                      pool=True, fuse=True)
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["use"] == "lock"
        assert stats.tasks == {"classify": 1, "solve": 1}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inline_chain_frees_the_fused_dependency(self, workers):
        """A chain run in the parent (inline at one worker, stolen at
        two) records its dependency's value as ``None``, as a pooled
        chain does, and the analyses die before the run ends."""
        MADE.clear()
        scheduler = PipelineScheduler(workers=workers, retry=FAST)
        chains = range(3)  # at 2 workers the third chain is stolen
        for chain in chains:
            scheduler.add(f"classify:{chain}", make_analyses,
                          stage="classify", pool=True)
            scheduler.add(f"solve:{chain}", solve_analyses,
                          deps=(f"classify:{chain}",), stage="solve",
                          pool=True, fuse=True)
        scheduler.add("live", live_analyses,
                      deps=tuple(f"solve:{chain}" for chain in chains))
        results = scheduler.run()
        assert MADE, "no chain ran in the parent"
        assert all(results[f"classify:{chain}"] is None
                   for chain in chains)
        assert all(results[f"solve:{chain}"] == "solved"
                   for chain in chains)
        assert results["live"] == 0

    def test_failing_fused_step_is_the_quarantined_task(self):
        scheduler = PipelineScheduler(workers=2, retry=FAST, strict=False)
        scheduler.add("make", make_lock, stage="classify", pool=True)
        scheduler.add("solve", fail_solver, deps=("make",),
                      stage="solve", pool=True, fuse=True)
        scheduler.add("after", lambda value: value, deps=("solve",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["make"] is None  # completed inside the worker
        assert isinstance(results["solve"], TaskFailure)
        assert results["solve"].stage == "solve"
        assert results["after"].classification == CASCADED
        assert [f.key for f in stats.failure_report.quarantined] == \
            ["solve"]

    def test_fusing_needs_exactly_one_dependency(self):
        scheduler = PipelineScheduler()
        with pytest.raises(PipelineError, match="exactly one"):
            scheduler.add("both", use_lock, deps=("a", "b"), fuse=True)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Cold mini-grid sweeps at workers 1/2/4, cached and --cache off."""
    runs = {}
    for workers in (1, 2, 4):
        for cached in (True, False):
            cache = (str(tmp_path_factory.mktemp(f"w{workers}"))
                     if cached else "off")
            stats = PipelineStats()
            result = run_sweep(GRID, pfails=PFAILS, benchmarks=BENCHMARKS,
                               config=EstimatorConfig(cache=cache),
                               workers=workers, pipeline_stats=stats)
            runs[(workers, cached)] = (result, stats, cache)
    return runs


class TestFlatSweep:
    def test_reports_byte_identical_at_any_width_and_store(self, sweeps):
        reports = {key: format_sweep_report(result)
                   for key, (result, _, _) in sweeps.items()}
        assert len(set(reports.values())) == 1, sorted(reports)

    def test_cache_off_runs_the_same_fixpoints_and_ilps(self, sweeps):
        for workers in (1, 2, 4):
            cached = sweeps[(workers, True)][1].counters
            uncached = sweeps[(workers, False)][1].counters
            for counter in ("fixpoints_run", "ilp_solved", "tables_built",
                            "classify_batched_rows", "dist_batched_rows"):
                assert cached[counter] == uncached[counter], counter
            # Batching is part of the DAG's shape: one stacked pair plus
            # one SRB fixpoint per (benchmark, line size), store or not.
            assert uncached["fixpoints_run"] == len(BENCHMARKS) * 2 * 3

    def test_stats_record_tasks_and_work(self, sweeps):
        _, stats, _ = sweeps[(2, True)]
        groups = len(BENCHMARKS) * 2
        assert stats.tasks == {"classify": groups, "solve": groups,
                               "cell": len(BENCHMARKS) * len(GRID),
                               "sweep-cell": len(GRID) * len(PFAILS)}
        assert stats.counters["ilp_solved"] > 0
        assert stats.counters["fixpoints_run"] > 0
        assert stats.cells_recomputed == \
            len(BENCHMARKS) * len(GRID) * len(PFAILS) * 3
        assert stats.failure_report.ok

    def test_warm_rerun_is_served_whole_from_the_store(self, sweeps):
        cold, _, cache = sweeps[(1, True)]
        stats = PipelineStats()
        warm = run_sweep(GRID, pfails=PFAILS, benchmarks=BENCHMARKS,
                         config=EstimatorConfig(cache=cache),
                         pipeline_stats=stats)
        assert warm.points == cold.points
        assert stats.tasks == {"sweep-cell": len(GRID) * len(PFAILS)}
        assert stats.from_store == {"cell": len(BENCHMARKS) * len(GRID)}
        assert stats.cells_from_store == \
            len(BENCHMARKS) * len(GRID) * len(PFAILS) * 3
        assert stats.counters.get("ilp_solved", 0) == 0
        assert stats.counters.get("fixpoints_run", 0) == 0

    def test_one_polytope_per_benchmark_and_line_size(self, sweeps):
        """Geometries of a line-size group share one flow polytope, so
        objectives recurring across them are solved once."""
        _, stats, _ = sweeps[(1, False)]
        per_geometry = 0
        for name in BENCHMARKS:
            for geometry in GRID:
                estimator = PWCETEstimator(
                    load(name), EstimatorConfig(geometry=geometry,
                                                cache="off"), name=name)
                estimator.estimate_all()
                per_geometry += estimator.solver_stats.ilp_solved
        assert stats.counters["ilp_solved"] < per_geometry


class TestUnreturnableValue:
    def test_unpicklable_pool_result_is_a_task_failure(self):
        """A value that cannot travel back from a worker fails its task
        (charged like any stage error) instead of crashing the run."""
        scheduler = PipelineScheduler(workers=2, strict=False,
                                      retry=RetryPolicy(
                                          max_attempts=1,
                                          sleep=lambda seconds: None))
        scheduler.add("lock", make_lock, pool=True)
        scheduler.add("fine", use_lock, args=(None,), pool=True)
        results = scheduler.run()
        assert isinstance(results["lock"], TaskFailure)
        assert results["fine"] == "NoneType"
