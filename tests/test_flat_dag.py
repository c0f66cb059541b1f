"""The flat estimation DAG: one task per (benchmark, line size), one pool.

Covers the sweep built as one DAG: byte-identical reports at any
worker count with and without the persistent stores, identical
fixpoint and ILP counts with and without them, honest per-run task
and work counters, and classification tables that die inside the
solve task that built them.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.analysis import geometry_batch
from repro.analysis.references import Reference
from repro.cache import CacheGeometry
from repro.minic import compile_program
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pipeline.scheduler import FailureReport
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.pipeline.stages import solve_stage
from repro.suite import build, load
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

#: Two line sizes x two capacities: two stacked groups of two.
GRID = geometry_grid(sizes=(512, 1024), ways=(2,), lines=(16, 32))
BENCHMARKS = ("fibcall", "bs")
PFAILS = (1e-4, 1e-3)


def make_lock():
    """Pool task body whose value cannot be pickled."""
    return threading.Lock()


class TestAnalysesStayInTheirTask:
    def test_no_analysis_outlives_its_solve_task(self, monkeypatch):
        """Every analysis a sweep makes is dead by the time its
        ``sweep-cell`` sinks run: the tables are consumed inside the
        solve task and never kept for the run."""
        made: list[weakref.ref] = []
        grouped = geometry_batch.grouped_analysis

        def tracked(*args, **kwargs):
            analyses = grouped(*args, **kwargs)
            made.extend(weakref.ref(analysis) for analysis in analyses)
            return analyses

        monkeypatch.setattr(geometry_batch, "grouped_analysis", tracked)
        alive_at_sinks = []
        run_sweep(GRID, pfails=PFAILS, benchmarks=BENCHMARKS,
                  config=EstimatorConfig(cache="off"),
                  on_cell=lambda *_: alive_at_sinks.append(
                      sum(ref() is not None for ref in made)))
        assert len(made) == len(BENCHMARKS) * len(GRID)
        assert alive_at_sinks == [0] * len(GRID) * len(PFAILS)


    def test_solve_task_leaves_no_reference_alive(self, monkeypatch):
        """A solve task owns its reference maps: once it returns, no
        :class:`Reference` it made is alive, although its CFG is."""
        made: list[weakref.ref] = []
        init = Reference.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(Reference, "__init__", tracked)
        cfg = compile_program(build("bs")).cfg
        group = (CacheGeometry.from_size(512, 2, 16),
                 CacheGeometry.from_size(1024, 2, 16))
        output = solve_stage(cfg, group, EstimatorConfig(cache="off"))
        gc.collect()
        assert set(output.geometries) == set(group)
        assert made
        assert sum(ref() is not None for ref in made) == 0


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
                               config=EstimatorConfig(cache=cache,
                                                      workers=workers),
                               pipeline_stats=stats)
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
        assert stats.tasks == {"solve": groups,
                               "cell": len(BENCHMARKS) * len(GRID),
                               "sweep-cell": len(GRID) * len(PFAILS)}
        assert stats.counters["ilp_solved"] > 0
        assert stats.counters["fixpoints_run"] > 0
        assert stats.counters["cells_computed"] == \
            len(BENCHMARKS) * len(GRID) * len(PFAILS) * 3
        assert stats.failure_report == FailureReport()

    def test_warm_rerun_is_served_whole_from_the_store(self, sweeps):
        cold, _, cache = sweeps[(1, True)]
        stats = PipelineStats()
        warm = run_sweep(GRID, pfails=PFAILS, benchmarks=BENCHMARKS,
                         config=EstimatorConfig(cache=cache),
                         pipeline_stats=stats)
        assert warm.points == cold.points
        assert stats.tasks == {"sweep-cell": len(GRID) * len(PFAILS)}
        assert stats.from_store == {"cell": len(BENCHMARKS) * len(GRID)}
        assert stats.counters["cells_from_store"] == \
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
                per_geometry += estimator.stats.counters["ilp_solved"]
        assert stats.counters["ilp_solved"] < per_geometry


class TestUnreturnableValue:
    def test_unpicklable_pool_result_raises_its_own_error(self):
        """A value that cannot travel back from a worker is a stage
        error like any other: its pickling error aborts the run, and
        the pool is not rebuilt for it."""
        scheduler = PipelineScheduler(workers=2)
        scheduler.add("lock", make_lock, pool=True)
        stats = PipelineStats()
        with pytest.raises(TypeError, match="pickle"):
            scheduler.run(stats=stats)
        assert stats.failure_report == FailureReport()
