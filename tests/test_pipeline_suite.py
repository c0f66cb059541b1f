"""Suite and sweep execution through the unified pipeline.

Covers the re-routed drivers: per-run stats scoping (the historical
double-reset footgun), bit-identity of the pooled DAG against the
sequential path, and the sweep's N-worker determinism.
"""

from __future__ import annotations

from repro.experiments.runner import (fresh_results, reset_cache,
                                      run_benchmark, run_suite,
                                      solver_totals)
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

    def test_result_stats_survive_reset_cache(self):
        with fresh_results():
            config = _config()
            result = run_benchmark("fibcall", config)
            snapshot = dict(result.solver_stats)
            assert snapshot["ilp_solved"] > 0
            reset_cache()
            rerun = run_benchmark("fibcall", config)
            # The old result's stats are an immutable snapshot of its
            # own pipeline run — a later reset/rerun cannot zero them.
            assert result.solver_stats == snapshot
            assert rerun.solver_stats == snapshot  # same cold work
            assert rerun.pwcet("srb") == result.pwcet("srb")

    def test_totals_of_one_run_match_per_result_stats(self):
        with fresh_results():
            config = _config()
            stats = PipelineStats()
            results = run_suite(config, benchmarks=SUBSET,
                                pipeline_stats=stats)
            assert stats.totals() == solver_totals(results)


class TestPipelinedSuiteIdentity:
    def test_pooled_dag_matches_sequential(self):
        with fresh_results():
            sequential = run_suite(_config(), benchmarks=SUBSET)
        with fresh_results():
            pooled = run_suite(_config(workers=2), benchmarks=SUBSET,
                               workers=2)
        for a, b in zip(sequential, pooled):
            assert a.name == b.name
            assert a.wcet_fault_free == b.wcet_fault_free
            for mechanism in ("none", "srb", "rw"):
                assert a.pwcet(mechanism) == b.pwcet(mechanism)
            assert a.solver_stats == b.solver_stats


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
