"""The fault-tolerant pipeline: retries, quarantine, partial results.

Covers the resilience tentpole end to end: policy arithmetic, inline
and pool recovery from transient faults (including a worker SIGKILL'd
under the chaos harness), stage-timeout supervision, quarantine with
subtree-only cascades in ``strict=False`` runs — and the acceptance
property that a recovered chaos run stays byte-identical to an
undisturbed sequential one.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import SolverError
from repro.experiments.fig4 import format_fig4, row_of
from repro.experiments.runner import (FailedBenchmark, fresh_results,
                                      run_suite)
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pipeline.resilience import (CASCADED, PERMANENT, TRANSIENT,
                                       DEFAULT_RETRY_POLICY, RetryPolicy,
                                       StageTimeout, TaskFailure,
                                       classify_failure)
from repro.pwcet import EstimatorConfig
from repro.solve.store import SCHEMA_VERSION, SolveStore
from repro.sweep import format_sweep_report, geometry_grid, run_sweep
from repro.testing import faultinject
from repro.testing.faultinject import PLAN_ENV, STATE_ENV

SUBSET = ("fibcall", "bs", "prime")
#: The solve store's schema directory under a cache root.
SOLVE_DIR = f"v{SCHEMA_VERSION}"

#: Instant retries for tests — no real backoff sleeping.
FAST = RetryPolicy(sleep=lambda seconds: None)


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()
    yield
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()


class TestPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.12)
        assert policy.backoff(1) == 0.05
        assert policy.backoff(2) == 0.10
        assert policy.backoff(3) == 0.12  # capped
        assert policy.backoff(10) == 0.12

    def test_stage_timeouts_override_the_global_budget(self):
        policy = RetryPolicy(timeout=5.0,
                             stage_timeouts={"solve": 30.0})
        assert policy.timeout_for("solve") == 30.0
        assert policy.timeout_for("classify") == 5.0
        assert RetryPolicy().timeout_for("solve") is None

    def test_classification_follows_the_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool
        assert classify_failure(BrokenProcessPool()) == TRANSIENT
        assert classify_failure(StageTimeout("late")) == TRANSIENT
        assert classify_failure(ConnectionError()) == TRANSIENT
        assert classify_failure(EOFError()) == TRANSIENT
        assert classify_failure(SolverError("infeasible")) == PERMANENT
        assert classify_failure(ValueError("bad input")) == PERMANENT

    def test_jittered_sleep_stays_within_the_backoff_envelope(self):
        """``sleep_backoff`` samples uniformly *downward* from the
        deterministic ceiling: never longer (no pile-up past the cap),
        never below ``backoff * (1 - jitter)`` (still a real wait)."""
        naps = []
        rolls = iter((0.0, 1.0, 0.5))
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=10.0,
                             jitter=0.5, rng=lambda: next(rolls),
                             sleep=naps.append)
        policy.sleep_backoff(1)  # roll 0.0: the full ceiling
        policy.sleep_backoff(1)  # roll 1.0: the floor of the envelope
        policy.sleep_backoff(2)  # roll 0.5: mid-envelope
        assert naps == pytest.approx([0.1, 0.05, 0.15])
        for nap, attempt in zip(naps, (1, 1, 2)):
            ceiling = policy.backoff(attempt)
            assert ceiling * (1 - policy.jitter) <= nap <= ceiling

    def test_sleep_backoff_clamps_to_the_deadline(self):
        """A retry sleep never overshoots the run's global deadline —
        and sleeps not at all once the deadline has passed."""
        naps = []
        policy = RetryPolicy(backoff_base=10.0, backoff_cap=10.0,
                             jitter=0.0, sleep=naps.append)
        slept = policy.sleep_backoff(1, deadline=time.monotonic() + 0.2)
        assert 0.0 < slept <= 0.2
        assert naps == [slept]
        # An expired deadline skips the sleep entirely.
        assert policy.sleep_backoff(1,
                                    deadline=time.monotonic() - 1.0) == 0.0
        assert len(naps) == 1

    def test_failure_report_round_trips_through_dicts(self):
        from repro.pipeline.resilience import FailureReport
        failure = TaskFailure(key="cell:crc:0", stage="cell",
                              classification=TRANSIENT, attempts=3,
                              error="injected network fault",
                              elapsed=1.25, root_key="cell:crc:0")
        cascaded = TaskFailure(key="estimate:crc", stage="estimate",
                               classification=CASCADED, attempts=0,
                               error="upstream quarantined",
                               elapsed=0.0, root_key="cell:crc:0")
        report = FailureReport(failures=[failure, cascaded], retries=4,
                               timeouts=1, pool_rebuilds=2)
        restored = FailureReport.from_dict(report.as_dict())
        assert restored.as_dict() == report.as_dict()
        assert restored.retries == 4
        assert restored.timeouts == 1
        assert restored.pool_rebuilds == 2
        assert [f.key for f in restored.failures] == \
            [f.key for f in report.failures]
        restored_failure = restored.failures[0]
        assert restored_failure == failure
        assert restored_failure.classification == TRANSIENT
        assert restored.failures[1].root_key == "cell:crc:0"
        # A clean report survives the trip too, and stays ok.
        clean = FailureReport.from_dict(FailureReport().as_dict())
        assert clean.ok
        assert clean.summary()["failed_tasks"] == 0


def flaky(failures: int, error=ConnectionError):
    """A task body failing ``failures`` times before succeeding."""
    state = {"left": failures}

    def fn(*deps):
        if state["left"] > 0:
            state["left"] -= 1
            raise error(f"flake ({state['left']} left)")
        return "done"
    return fn


class TestInlineRecovery:
    def test_transient_failures_retry_until_success(self):
        naps = []
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.15,
                             jitter=0.0, sleep=naps.append)
        scheduler = PipelineScheduler(workers=1, retry=policy)
        scheduler.add("a", flaky(2))
        stats = PipelineStats()
        assert scheduler.run(stats=stats)["a"] == "done"
        assert stats.failure_report.ok
        assert stats.failure_report.retries == 2
        # The deterministic exponential schedule, not wall-clock luck.
        assert naps == [0.1, 0.15]

    def test_exhausted_transient_budget_quarantines(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
        scheduler = PipelineScheduler(workers=1, retry=policy,
                                      strict=False)
        scheduler.add("a", flaky(99))
        stats = PipelineStats()
        failure = scheduler.run(stats=stats)["a"]
        assert isinstance(failure, TaskFailure)
        assert failure.classification == TRANSIENT
        assert failure.attempts == 2
        assert stats.failure_report.retries == 1

    def test_permanent_failures_never_retry(self):
        naps = []
        policy = RetryPolicy(sleep=naps.append)
        scheduler = PipelineScheduler(workers=1, retry=policy,
                                      strict=False)
        scheduler.add("a", flaky(99, error=SolverError))
        failure = scheduler.run()["a"]
        assert failure.classification == PERMANENT
        assert failure.attempts == 1
        assert naps == []

    def test_strict_mode_reraises_the_original_error(self):
        scheduler = PipelineScheduler(workers=1, retry=FAST)
        scheduler.add("a", flaky(99, error=SolverError))
        stats = PipelineStats()
        with pytest.raises(SolverError, match="flake"):
            scheduler.run(stats=stats)
        # The ledger still records what happened before the raise.
        assert not stats.failure_report.ok

    def test_no_policy_is_the_legacy_raw_path(self):
        scheduler = PipelineScheduler(workers=1, retry=None)
        scheduler.add("a", flaky(1))  # transient, would recover
        with pytest.raises(ConnectionError):
            scheduler.run()


class TestPartialResults:
    def test_only_the_dependent_subtree_cascades(self):
        scheduler = PipelineScheduler(workers=1, retry=FAST,
                                      strict=False)
        scheduler.add("bad", flaky(99, error=SolverError))
        scheduler.add("child", lambda dep: dep, deps=("bad",))
        scheduler.add("grandchild", lambda dep: dep, deps=("child",))
        scheduler.add("ok", lambda: 41)
        scheduler.add("ok2", lambda dep: dep + 1, deps=("ok",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        # The independent subtree completed normally ...
        assert results["ok"] == 41
        assert results["ok2"] == 42
        # ... while the quarantined root's descendants cascaded.
        assert results["bad"].classification == PERMANENT
        assert results["child"].classification == CASCADED
        assert results["child"].root_key == "bad"
        assert results["grandchild"].root_key == "bad"
        assert stats.partial
        report = stats.failure_report
        assert [f.key for f in report.quarantined] == ["bad"]
        assert report.summary()["failed_tasks"] == 3

    def test_run_suite_partial_returns_failed_benchmark(
            self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        with fresh_results():
            stats = PipelineStats()
            results = run_suite(EstimatorConfig(cache="off"),
                                benchmarks=("crc", "fibcall"),
                                pipeline_stats=stats,
                                strict=False, retry=FAST)
            crc, fibcall = results
            assert isinstance(crc, FailedBenchmark)
            assert crc.name == "crc"
            assert "injected solver fault" in crc.failure.error \
                or crc.failure.cascaded
            # The undisturbed benchmark is a complete, usable result.
            assert fibcall.name == "fibcall"
            assert fibcall.pwcet("rw") > 0
            assert row_of(fibcall).name == "fibcall"
            assert stats.partial
            assert stats.failure_report.quarantined

    def test_run_suite_strict_raises_the_solver_error(
            self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        with fresh_results():
            with pytest.raises(SolverError, match="injected"):
                run_suite(EstimatorConfig(cache="off"),
                          benchmarks=("crc",), retry=FAST)

    def test_failed_benchmarks_are_never_memoised(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc#1")
        with fresh_results():
            first = run_suite(EstimatorConfig(cache="off"),
                              benchmarks=("crc",),
                              strict=False,
                              retry=RetryPolicy(max_attempts=1,
                                                sleep=lambda s: None))
            assert isinstance(first[0], FailedBenchmark)
            # Ordinal #1 is spent: the rerun recomputes and succeeds.
            second = run_suite(EstimatorConfig(cache="off"),
                               benchmarks=("crc",),
                               strict=False, retry=FAST)
            assert not isinstance(second[0], FailedBenchmark)
            assert second[0].pwcet("none") > 0

    def test_sweep_partial_annotates_the_failed_cell(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        with fresh_results():
            geometries = geometry_grid(sizes=(1024,), ways=(4,),
                                       lines=(16,))
            result = run_sweep(geometries, pfails=(1e-4, 1e-3),
                               benchmarks=("crc", "fibcall"),
                               config=EstimatorConfig(cache="off"),
                               strict=False, retry=FAST)
            # Both (geometry, pfail) cells contain crc: both fail.
            assert len(result.failed) == 2
            assert all(failure.benchmarks == ("crc",)
                       for failure in result.failed)
            assert "injected solver fault" in result.failed[0].reason
            assert result.points == ()
            text = format_sweep_report(result)
            assert "FAILED cells (2 of 2" in text
            assert "crc" in text


class TestCleanRunsUnchanged:
    def test_clean_report_is_structurally_empty(self):
        scheduler = PipelineScheduler(workers=1,
                                      retry=DEFAULT_RETRY_POLICY,
                                      strict=False)
        scheduler.add("a", lambda: 1)
        stats = PipelineStats()
        scheduler.run(stats=stats)
        assert stats.failure_report.ok
        assert not stats.partial
        assert stats.failure_report.summary() == {
            "failed_tasks": 0, "quarantined": 0, "retries": 0,
            "timeouts": 0, "pool_rebuilds": 0}

    def test_clean_sweep_report_has_no_failed_section(self):
        with fresh_results():
            geometries = geometry_grid(sizes=(1024,), ways=(4,),
                                       lines=(16,))
            result = run_sweep(geometries, pfails=(1e-4,),
                               benchmarks=("fibcall",),
                               config=EstimatorConfig(cache="off"))
            assert result.failed == ()
            assert "FAILED" not in format_sweep_report(result)


def double_stage(value):
    """Module-level pool task body (picklable)."""
    return value * 2


def sleepy_stage():
    time.sleep(30)
    return "too late"  # pragma: no cover - always killed first


class TestPoolRecovery:
    def test_sigkilled_worker_is_rebuilt_and_retried(
            self, monkeypatch, tmp_path):
        """The chaos plan kills the worker running the stage's first
        global invocation; the pool is rebuilt and the resubmitted
        task succeeds with the identical result."""
        monkeypatch.setenv(PLAN_ENV, "worker:kill@double_stage#1")
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        scheduler = PipelineScheduler(workers=2, retry=FAST)
        scheduler.add("a", double_stage, args=(21,), pool=True)
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["a"] == 42
        report = stats.failure_report
        assert report.ok
        assert report.pool_rebuilds == 1
        assert report.retries == 1

    def test_timed_out_stage_is_killed_and_quarantined(self):
        policy = RetryPolicy(max_attempts=1, timeout=0.5,
                             sleep=lambda s: None)
        scheduler = PipelineScheduler(workers=2, retry=policy,
                                      strict=False)
        scheduler.add("slow", sleepy_stage, pool=True)
        scheduler.add("ok", lambda: "fine")
        stats = PipelineStats()
        started = time.perf_counter()
        results = scheduler.run(stats=stats)
        # The 30s stage was killed at its 0.5s budget, not awaited.
        assert time.perf_counter() - started < 15.0
        assert results["ok"] == "fine"
        failure = results["slow"]
        assert isinstance(failure, TaskFailure)
        assert failure.classification == TRANSIENT
        assert "timeout budget" in failure.error
        assert stats.failure_report.timeouts == 1
        assert stats.failure_report.pool_rebuilds == 1


class TestChaosByteIdentity:
    def test_chaos_suite_matches_undisturbed_sequential_run(
            self, monkeypatch, tmp_path):
        """The acceptance property: a 4-worker suite surviving worker
        kills and a torn shard write renders byte-identically to a
        sequential, undisturbed run."""
        with fresh_results():
            golden = run_suite(
                EstimatorConfig(cache=str(tmp_path / "golden")),
                benchmarks=SUBSET)
            golden_text = format_fig4([row_of(r) for r in golden])
        monkeypatch.setenv(PLAN_ENV,
                           "worker:kill@classify_stage#1;"
                           "worker:kill@cell_stage#2;"
                           "store:truncate_tail@*#1")
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        with fresh_results():
            stats = PipelineStats()
            chaos = run_suite(
                EstimatorConfig(cache=str(tmp_path / "chaos"),
                                workers=4),
                benchmarks=SUBSET, workers=4,
                pipeline_stats=stats, retry=FAST)
            chaos_text = format_fig4([row_of(r) for r in chaos])
        assert chaos_text == golden_text
        # The faults actually fired: recovery did real work.
        assert stats.failure_report.retries > 0
        assert stats.failure_report.pool_rebuilds > 0
        assert stats.failure_report.ok  # and nothing was lost


class TestStoreCrashRecovery:
    def test_torn_tail_of_a_killed_writer_is_dropped_and_repaired(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv(PLAN_ENV, f"store:truncate_tail@{SOLVE_DIR}#1")
        writer = SolveStore(tmp_path)
        writer.put("k1", 41)  # injected torn write: half a line lands
        shards = list((tmp_path / SOLVE_DIR).glob("shard-*.jsonl"))
        assert len(shards) == 1
        text = shards[0].read_text()
        assert "\n" not in text  # genuinely torn, no complete line
        # A fresh handle drops the torn tail as corrupt ...
        reader = SolveStore(tmp_path)
        assert reader.get("k1") is None
        # ... and the recomputed entry is appended whole.
        reader.put("k1", 41)
        assert SolveStore(tmp_path).get("k1") == 41

    def test_close_is_idempotent(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put("k", 7)
        store.close()
        store.close()  # second close is a no-op, not a double-close
        assert SolveStore(tmp_path).get("k") == 7

    def test_del_survives_partial_initialisation(self):
        # __del__ may run on an instance whose __init__ never
        # completed (interpreter shutdown, failed construction).
        ghost = SolveStore.__new__(SolveStore)
        ghost.close()
        ghost.__del__()


class TestFaultPmfMemoBound:
    def test_memo_is_bounded_with_lru_eviction(self, monkeypatch):
        from repro.cache import CacheGeometry
        from repro.faults import FaultProbabilityModel
        from repro.reliability import (NoProtection,
                                       fault_pmf_cache_stats,
                                       reset_fault_pmf_cache)
        from repro.reliability import mechanism as mechanism_module

        monkeypatch.setattr(mechanism_module, "_FAULT_PMF_LIMIT", 4)
        reset_fault_pmf_cache()
        try:
            mechanism = NoProtection()
            geometry = CacheGeometry.from_size(1024, 4, 16)

            def pmf(pfail):
                return mechanism.fault_pmf(
                    FaultProbabilityModel(geometry, pfail))

            for exponent in range(1, 11):
                pmf(10.0 ** -exponent)
            stats = fault_pmf_cache_stats()
            assert stats.misses == 10
            assert stats.evicted == 6
            assert len(mechanism_module._FAULT_PMF_CACHE) == 4
            # LRU, not FIFO: a hit refreshes its entry, so the next
            # eviction takes the stalest *unused* key instead.
            pmf(10.0 ** -7)  # hit: oldest surviving entry, refreshed
            assert fault_pmf_cache_stats().hits == 1
            pmf(10.0 ** -11)  # evicts 1e-8, not the refreshed 1e-7
            pmf(10.0 ** -7)
            assert fault_pmf_cache_stats().hits == 2
            assert fault_pmf_cache_stats().evicted == 7
        finally:
            reset_fault_pmf_cache()

    def test_stats_summary_reports_evictions(self):
        from repro.pwcet import PWCETEstimator
        from repro.suite import load

        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache="off"),
                                   name="fibcall")
        assert "fault_pmf_evicted" in estimator.stats_summary()
