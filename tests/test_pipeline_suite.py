"""Suite and sweep execution through the unified pipeline.

Covers the re-routed drivers: per-run stats scoping (every call runs
its DAG and counts only its own work), one counter channel that means
the same for a suite and a sweep, bit-identity of the pooled DAG
against the sequential path, and the sweep's N-worker determinism.
"""

from __future__ import annotations

from repro.experiments.runner import run_suite
from repro.pipeline import PipelineStats
from repro.pwcet import EstimatorConfig
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

SUBSET = ("fibcall", "bs", "prime")


def _config(tmp_path=None, **kwargs):
    cache = "off" if tmp_path is None else str(tmp_path / "store")
    return EstimatorConfig(cache=cache, **kwargs)


class TestStatsScoping:
    """Re-entering ``run_suite`` runs its DAG again: each call's
    ``PipelineStats`` counts exactly that call's work, and reuse
    across calls comes only from the persistent stores."""

    def test_reentered_suite_reports_zero_new_work(self, tmp_path):
        config = _config(tmp_path)
        first_stats = PipelineStats()
        first = run_suite(config, benchmarks=SUBSET,
                          pipeline_stats=first_stats)
        # solve + cells + result per benchmark.
        assert first_stats.tasks.total() == 3 * len(SUBSET)
        assert first_stats.counters["ilp_solved"] > 0

        second_stats = PipelineStats()
        second = run_suite(config, benchmarks=SUBSET,
                           pipeline_stats=second_stats)
        # Store-served: every cell row is read back, and nothing
        # upstream of the rows runs ...
        assert second_stats.counters["cells_from_store"] == 3 * len(SUBSET)
        assert second_stats.from_store["cell"] == len(SUBSET)
        assert second_stats.tasks == {"result": len(SUBSET)}
        assert second_stats.counters["ilp_solved"] == 0
        # ... and the first run's scope was not disturbed.
        assert first_stats.counters["cells_from_store"] == 0
        assert [r.name for r in second] == [r.name for r in first]

    def test_rerun_counts_the_same_cold_work(self):
        first_stats = PipelineStats()
        first = run_suite(_config(), benchmarks=("fibcall",),
                          pipeline_stats=first_stats)
        rerun_stats = PipelineStats()
        rerun = run_suite(_config(), benchmarks=("fibcall",),
                          pipeline_stats=rerun_stats)
        assert first_stats.counters["ilp_solved"] > 0
        assert rerun_stats.counters == first_stats.counters
        assert rerun[0].pwcet("srb") == first[0].pwcet("srb")

    def test_cache_off_rerun_after_a_default_run_computes(self):
        """``cache`` and ``workers`` are excluded from config equality,
        yet a ``--cache off`` run after a default one still computes."""
        run_suite(benchmarks=SUBSET)
        stats = PipelineStats()
        run_suite(_config(workers=2), benchmarks=SUBSET,
                  pipeline_stats=stats)
        assert stats.tasks["solve"] == len(SUBSET)
        assert stats.counters["cells_from_store"] == 0
        assert stats.wall_seconds > 0


class TestOneCounterChannel:
    """A suite and the sweep at the suite's geometry and pfail count
    the same work into their ``PipelineStats``."""

    BENCHMARKS = ("crc", "expint", "bs")

    def test_suite_and_sweep_counters_are_equal(self):
        config = _config()
        suite_stats = PipelineStats()
        run_suite(config, benchmarks=self.BENCHMARKS,
                  pipeline_stats=suite_stats)
        sweep_stats = PipelineStats()
        run_sweep((config.geometry,), pfails=(config.pfail,),
                  benchmarks=self.BENCHMARKS, config=config,
                  pipeline_stats=sweep_stats)
        assert suite_stats.counters == sweep_stats.counters
        counters = suite_stats.counters
        assert (counters["requests"], counters["ilp_solved"],
                counters["fixpoints_run"], counters["cells_computed"]) \
            == (528, 96, 9, 9)


class TestPipelinedSuiteIdentity:
    def test_pooled_dag_matches_sequential(self):
        sequential_stats, pooled_stats = PipelineStats(), PipelineStats()
        sequential = run_suite(_config(), benchmarks=SUBSET,
                               pipeline_stats=sequential_stats)
        pooled = run_suite(_config(workers=2), benchmarks=SUBSET,
                           pipeline_stats=pooled_stats)
        for a, b in zip(sequential, pooled):
            assert a.name == b.name
            assert a.wcet_fault_free == b.wcet_fault_free
            for mechanism in ("none", "srb", "rw"):
                assert a.pwcet(mechanism) == b.pwcet(mechanism)
        assert sequential_stats.counters == pooled_stats.counters


class TestSweepDeterminism:
    """A sweep at ``EstimatorConfig(workers=N)`` is byte-identical to
    sequential for N in {1, 4}."""

    def test_sweep_reports_byte_identical_for_1_and_4_workers(
            self, tmp_path):
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        kwargs = dict(pfails=(1e-4, 1e-3), benchmarks=("fibcall",),
                      probability=1e-15)
        reports = {}
        for workers in (1, 4):
            result = run_sweep(
                geometries,
                config=EstimatorConfig(
                    cache=str(tmp_path / f"w{workers}"), workers=workers),
                **kwargs)
            reports[workers] = format_sweep_report(result)
        assert reports[1] == reports[4]
