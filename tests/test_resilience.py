"""The scheduler's one failure rule, end to end.

A stage error — inline or from the pool — aborts the run at once and
is never retried: stages are pure functions of content-addressed
inputs, so a stage that raised would raise again.  A dead worker
(``BrokenExecutor``) is the one fault worth a retry: the pool is
rebuilt and every in-flight chain resubmitted, up to
``MAX_POOL_REBUILDS`` times per run.  A recovered chaos run stays
byte-identical to an undisturbed sequential one, and a writer killed
mid-transaction leaves every store intact.
"""

from __future__ import annotations

import multiprocessing
import signal
import sqlite3
from concurrent.futures import BrokenExecutor

import pytest

from repro.errors import SolverError
from repro.experiments.fig4 import format_fig4, row_of
from repro.experiments.runner import run_suite
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pipeline.scheduler import MAX_POOL_REBUILDS, FailureReport
from repro.pwcet import EstimatorConfig
from repro.solve.store import DB_NAME, SCHEMA_VERSION, SolveStore, solve_key
from repro.testing import faultinject
from repro.testing.faultinject import PLAN_ENV, STATE_ENV

SUBSET = ("fibcall", "bs", "prime")
#: The solve store's schema directory under a cache root.
SOLVE_DIR = f"v{SCHEMA_VERSION}"
#: Solve-store keys of the crash-recovery tests.
K, K0, K1, K2 = (solve_key("ctx", [("x", float(index))], False)
                 for index in range(4))


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()
    yield
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()


def counting_failure(error):
    """A task body that always raises ``error``, counting its calls."""
    calls = []

    def fn(*deps):
        calls.append(deps)
        raise error
    return fn, calls


class TestStageErrorsAbort:
    def test_permanent_failures_never_retry(self):
        """An inline stage error is raised once: the task is not
        rerun, its dependents never run, and nothing is counted."""
        fn, calls = counting_failure(SolverError("infeasible"))
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("bad", fn)
        scheduler.add("child", lambda dep: dep, deps=("bad",))
        stats = PipelineStats()
        with pytest.raises(SolverError, match="infeasible"):
            scheduler.run(stats=stats)
        assert len(calls) == 1
        assert stats.tasks == {}
        assert stats.failure_report == FailureReport()

    def test_pool_connection_error_is_not_retried(self):
        """A stage raising on the pool propagates as itself, whatever
        its type: only a dead worker is worth a retry."""
        scheduler = PipelineScheduler(workers=2)
        scheduler.add("refuse", refuse_stage, pool=True)
        stats = PipelineStats()
        with pytest.raises(ConnectionError, match="refused"):
            scheduler.run(stats=stats)
        assert stats.failure_report.retries == 0
        assert stats.failure_report.pool_rebuilds == 0

    def test_run_suite_raises_the_solver_error(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        with pytest.raises(SolverError, match="injected"):
            run_suite(EstimatorConfig(cache="off"),
                      benchmarks=("crc", "fibcall"))


class TestCleanRunsUnchanged:
    def test_clean_report_is_structurally_empty(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("a", lambda: 1)
        stats = PipelineStats()
        scheduler.run(stats=stats)
        assert stats.failure_report == FailureReport(retries=0,
                                                     pool_rebuilds=0)


def double_stage(value):
    """Module-level pool task body (picklable)."""
    return value * 2


def refuse_stage():
    raise ConnectionError("refused")


class TestPoolRecovery:
    def test_sigkilled_worker_is_rebuilt_and_retried(
            self, monkeypatch, tmp_path):
        """The chaos plan kills the worker running the stage's first
        global invocation; the pool is rebuilt and the resubmitted
        task succeeds with the identical result."""
        monkeypatch.setenv(PLAN_ENV, "worker:kill@double_stage#1")
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        scheduler = PipelineScheduler(workers=2)
        scheduler.add("a", double_stage, args=(21,), pool=True)
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["a"] == 42
        assert stats.failure_report == FailureReport(retries=1,
                                                     pool_rebuilds=1)

    def test_a_worker_that_always_dies_exhausts_the_rebuild_budget(
            self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "worker:kill@double_stage")
        scheduler = PipelineScheduler(workers=2)
        scheduler.add("a", double_stage, args=(21,), pool=True)
        stats = PipelineStats()
        with pytest.raises(BrokenExecutor):
            scheduler.run(stats=stats)
        assert stats.failure_report.pool_rebuilds == MAX_POOL_REBUILDS
        assert stats.failure_report.retries == MAX_POOL_REBUILDS


class TestChaosByteIdentity:
    def test_chaos_suite_matches_undisturbed_sequential_run(
            self, monkeypatch, tmp_path):
        """The acceptance property: a 4-worker suite surviving worker
        kills and a writer killed mid-transaction renders
        byte-identically to a sequential, undisturbed run, and leaves
        every store database intact."""
        golden = run_suite(
            EstimatorConfig(cache=str(tmp_path / "golden")),
            benchmarks=SUBSET)
        golden_text = format_fig4([row_of(r) for r in golden])
        monkeypatch.setenv(PLAN_ENV,
                           "worker:kill@solve_stage#1;"
                           "worker:kill@cell_stage#2;"
                           "store:kill@*#1")
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        stats = PipelineStats()
        chaos = run_suite(
            EstimatorConfig(cache=str(tmp_path / "chaos"), workers=4),
            benchmarks=SUBSET, pipeline_stats=stats)
        chaos_text = format_fig4([row_of(r) for r in chaos])
        assert chaos_text == golden_text
        # The faults actually fired: recovery did real work.
        assert stats.failure_report.retries > 0
        assert stats.failure_report.pool_rebuilds > 0
        # The solve-stage and store clauses were reached (each
        # ordinal #1 then fired).
        for clause in (0, 2):
            assert (tmp_path / "state"
                    / f"clause-{clause}.count").stat().st_size >= 1
        for path in (tmp_path / "chaos").rglob(DB_NAME):
            assert _integrity(path) == "ok"
        # A warm rerun over the recovered stores is byte-identical too.
        monkeypatch.delenv(PLAN_ENV)
        warm = run_suite(EstimatorConfig(cache=str(tmp_path / "chaos")),
                         benchmarks=SUBSET)
        assert format_fig4([row_of(r) for r in warm]) == golden_text


def _integrity(path) -> str:
    db = sqlite3.connect(path)
    try:
        return db.execute("PRAGMA integrity_check").fetchone()[0]
    finally:
        db.close()


def _killed_writer(root: str) -> None:
    """A pool-worker-like child whose first write is SIGKILL'd."""
    store = SolveStore(root)
    with store.batch():
        store.put(K1, 41)
        store.put(K2, 42)


class TestStoreCrashRecovery:
    def test_torn_tail_of_a_killed_writer_is_dropped_and_repaired(
            self, monkeypatch, tmp_path):
        """A writer killed inside its open write transaction leaves no
        row and an intact database; the recomputed rows land whole."""
        writer = SolveStore(tmp_path)
        writer.put(K0, 40)
        writer.close()
        monkeypatch.setenv(PLAN_ENV, f"store:kill@{SOLVE_DIR}#1")
        child = multiprocessing.get_context("fork").Process(
            target=_killed_writer, args=(str(tmp_path),))
        child.start()
        child.join(60)
        assert child.exitcode == -signal.SIGKILL
        monkeypatch.delenv(PLAN_ENV)
        assert _integrity(tmp_path / SOLVE_DIR / DB_NAME) == "ok"
        reader = SolveStore(tmp_path)
        assert reader.get(K0) == 40
        # Neither row of the killed transaction is visible ...
        assert reader.get(K1) is None and reader.get(K2) is None
        assert reader.stats.corrupt_skipped == 0
        # ... and the recomputation writes them whole.
        reader.put(K1, 41)
        reader.put(K2, 42)
        fresh = SolveStore(tmp_path)
        assert (fresh.get(K1), fresh.get(K2)) == (41, 42)

    def test_read_error_is_a_miss(self, monkeypatch, tmp_path):
        writer = SolveStore(tmp_path)
        writer.put(K, 7)
        monkeypatch.setenv(PLAN_ENV, f"store:read_error@{SOLVE_DIR}#1")
        reader = SolveStore(tmp_path)
        assert reader.get(K) is None  # the injected SELECT failure
        assert reader.get(K) == 7
        assert reader.stats.corrupt_skipped == 0

    def test_the_driving_process_is_never_killed(self, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv(PLAN_ENV, "store:kill@*")
        store = SolveStore(tmp_path)
        store.put(K, 7)  # the test process survives its own write
        assert SolveStore(tmp_path).get(K) == 7

    def test_close_is_idempotent(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(K, 7)
        store.close()
        store.close()  # second close is a no-op, not a double-close
        assert SolveStore(tmp_path).get(K) == 7

    def test_del_survives_partial_initialisation(self):
        # __del__ may run on an instance whose __init__ never
        # completed (interpreter shutdown, failed construction).
        ghost = SolveStore.__new__(SolveStore)
        ghost.close()
        ghost.__del__()
