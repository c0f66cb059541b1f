"""Suite and sweep execution through the unified pipeline.

Covers the re-routed drivers: per-run stats scoping (the historical
double-reset footgun), one counter channel that means the same for a
suite and a sweep, bit-identity of the pooled DAG against the
sequential path, and the sweep's N-worker determinism.
"""

from __future__ import annotations

from repro.experiments.runner import fresh_results, reset_cache, run_suite
from repro.pipeline import PipelineStats
from repro.pwcet import EstimatorConfig
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

SUBSET = ("fibcall", "bs", "prime")


def _config(tmp_path=None, **kwargs):
    cache = "off" if tmp_path is None else str(tmp_path / "store")
    return EstimatorConfig(cache=cache, **kwargs)


class TestStatsScoping:
    """The double-reset footgun: re-entering ``run_suite`` must not
    zero (or double-count) a previous run's numbers."""

    def test_reentered_suite_reports_zero_new_work(self):
        with fresh_results():
            config = _config()
            first_stats = PipelineStats()
            first = run_suite(config, benchmarks=SUBSET,
                              pipeline_stats=first_stats)
            # classify + solve + cells + result per benchmark.
            assert first_stats.tasks_run == 4 * len(SUBSET)
            assert first_stats.counters["ilp_solved"] > 0

            second_stats = PipelineStats()
            second = run_suite(config, benchmarks=SUBSET,
                               pipeline_stats=second_stats)
            # Memo-served: the second *run* did no pipeline work ...
            assert second_stats.tasks_run == 0
            assert second_stats.counters == {}
            # ... and the first run's scope was not disturbed.
            assert first_stats.counters["ilp_solved"] > 0
            assert [r.name for r in second] == [r.name for r in first]

    def test_rerun_after_reset_cache_counts_the_same_cold_work(self):
        with fresh_results():
            config = _config()
            first_stats = PipelineStats()
            first = run_suite(config, benchmarks=("fibcall",),
                              pipeline_stats=first_stats)
            reset_cache()
            rerun_stats = PipelineStats()
            rerun = run_suite(config, benchmarks=("fibcall",),
                              pipeline_stats=rerun_stats)
            assert first_stats.counters["ilp_solved"] > 0
            assert rerun_stats.counters == first_stats.counters
            assert rerun[0].pwcet("srb") == first[0].pwcet("srb")


class TestOneCounterChannel:
    """A suite and the sweep at the suite's geometry and pfail count
    the same work into their ``PipelineStats``."""

    BENCHMARKS = ("crc", "expint", "bs")

    def test_suite_and_sweep_counters_are_equal(self):
        config = _config()
        suite_stats = PipelineStats()
        with fresh_results():
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
        with fresh_results():
            sequential = run_suite(_config(), benchmarks=SUBSET,
                                   pipeline_stats=sequential_stats)
        with fresh_results():
            pooled = run_suite(_config(workers=2), benchmarks=SUBSET,
                               workers=2, pipeline_stats=pooled_stats)
        for a, b in zip(sequential, pooled):
            assert a.name == b.name
            assert a.wcet_fault_free == b.wcet_fault_free
            for mechanism in ("none", "srb", "rw"):
                assert a.pwcet(mechanism) == b.pwcet(mechanism)
        assert sequential_stats.counters == pooled_stats.counters


class TestSweepDeterminism:
    """``run_sweep(workers=N)`` is byte-identical to sequential for N
    in {1, 4}."""

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
                    cache=str(tmp_path / f"w{workers}")),
                workers=workers, **kwargs)
            reports[workers] = format_sweep_report(result)
        assert reports[1] == reports[4]
