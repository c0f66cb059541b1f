"""The persistent solve store: identity, recovery, concurrency.

The store's contract mirrors the planner's: *bit-identical outputs* —
a warm run must produce exactly the numbers a cold run computes, and
anything unreadable on disk (truncated values, corrupt bytes, foreign
schema versions) must degrade to a re-solve, never to a wrong value.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import sqlite3
import subprocess
import sys

import pytest

from repro.pipeline import PipelineStats
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.store import (CACHE_ENV, DB_NAME, SCHEMA_VERSION,
                               SolveStore, solve_key, store_context)
from repro.suite import EVALUATED_BENCHMARKS, load

MECHANISMS = ("none", "srb", "rw")


def _db(root) -> sqlite3.Connection:
    """A raw autocommit connection to the solve store under ``root``."""
    return sqlite3.connect(root / f"v{SCHEMA_VERSION}" / DB_NAME,
                           isolation_level=None)


class TestRoundTrip:
    def test_value_round_trip_identity(self, tmp_path):
        store = SolveStore(tmp_path)
        entries = {solve_key("ctx", [("x", 1.0)], False): 0,
                   solve_key("ctx", [("x", 2.0)], False): 41,
                   solve_key("ctx", [("x", 2.0)], True): 42,
                   solve_key("ctx", [("y", 0.5)], False): 10**12}
        for key, value in entries.items():
            store.put(key, value)
        store.close()
        fresh = SolveStore(tmp_path)
        for key, value in entries.items():
            assert fresh.get(key) == value
        assert fresh.stats.hits == len(entries)

    def test_artefact_round_trip_identity(self, tmp_path):
        store = SolveStore(tmp_path)
        artefact = {"objective": 1234.0,
                    "values": {"e_0_1": 3.0, "m_2_s1": 0.5}}
        key = solve_key("ctx", [("e_0_1", 7.0)], False, kind="solution")
        store.put_artefact(key, artefact)
        store.close()
        assert SolveStore(tmp_path).get_artefact(key) == artefact

    def test_solution_and_value_keys_do_not_collide(self):
        named = [("x", 1.0)]
        assert (solve_key("ctx", named, False)
                != solve_key("ctx", named, False, kind="solution"))

    def test_key_is_order_independent_but_context_sensitive(self):
        assert (solve_key("ctx", [("a", 1.0), ("b", 2.0)], False)
                == solve_key("ctx", [("b", 2.0), ("a", 1.0)], False))
        assert (solve_key("ctx", [("a", 1.0)], False)
                != solve_key("other", [("a", 1.0)], False))
        assert (solve_key("ctx", [("a", 1.0)], False)
                != solve_key("ctx", [("a", 1.0)], True))

    def test_missing_key_counts_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_duplicate_put_not_rewritten(self, tmp_path):
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.put(key, 5)
        assert store.stats.writes == 1


class TestSchemaVersioning:
    def test_entries_live_under_versioned_directory(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1.0)], False), 5)
        assert (tmp_path / f"v{SCHEMA_VERSION}").is_dir()

    def test_schema_bump_invalidates_entries(self, tmp_path, monkeypatch):
        key = solve_key("ctx", [("x", 1.0)], False)
        store = SolveStore(tmp_path)
        store.put(key, 5)
        store.close()
        monkeypatch.setattr("repro.solve.store.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        fresh = SolveStore(tmp_path)
        # The old database is not even opened (different subdirectory),
        # and freshly derived keys differ anyway (version in the
        # preimage).
        assert fresh.get(key) is None
        assert key != solve_key("ctx", [("x", 1.0)], False)


class TestCorruptionRecovery:
    def _populated(self, tmp_path) -> tuple[SolveStore, str]:
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.close()
        return store, key

    def test_truncated_tail_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        other = solve_key("ctx", [("y", 1.0)], False)
        store.put(other, 123456)
        store.close()
        db = _db(tmp_path)  # a torn value: cut short, checksum kept
        db.execute("UPDATE entries SET value = substr(value, 1, 3) "
                   "WHERE key = ?", (other,))
        db.close()
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.get(other) is None
        assert fresh.stats.corrupt_skipped == 1

    def test_garbage_bytes_are_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        other = solve_key("ctx", [("y", 1.0)], False)
        db = _db(tmp_path)
        db.execute("INSERT INTO entries VALUES ('solve', ?, 7, ?)",
                   (other, b"\x00\xffgarbage\n[1, 2"))
        db.close()
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.get(other) is None
        assert fresh.stats.corrupt_skipped >= 1

    def test_checksum_mismatch_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        other = solve_key("ctx", [("y", 1.0)], False)
        db = _db(tmp_path)
        # Flip the value, keep the checksum; add a row whose checksum
        # was never right.
        db.execute("UPDATE entries SET value = X'36' WHERE key = ?",
                   (key,))
        db.execute("INSERT INTO entries VALUES ('solve', ?, 123456, ?)",
                   (other, b"9"))
        db.close()
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) is None  # a tampered row is a miss
        assert fresh.get(other) is None
        assert fresh.stats.corrupt_skipped == 2

    def test_corrupt_entry_is_resolved_and_rewritten(self, tmp_path):
        store, key = self._populated(tmp_path)
        db = _db(tmp_path)  # flip one byte of the stored blob
        (value,) = db.execute("SELECT value FROM entries WHERE key = ?",
                              (key,)).fetchone()
        db.execute("UPDATE entries SET value = ? WHERE key = ?",
                   (bytes([value[0] ^ 1]) + value[1:], key))
        db.close()
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_skipped == 1
        fresh.put(key, 5)  # the re-solve repairs the row in place
        assert fresh.stats.writes == 1
        fresh.close()
        repaired = SolveStore(tmp_path)
        assert repaired.get(key) == 5
        assert repaired.stats.corrupt_skipped == 0

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        target = tmp_path / "readonly"
        target.mkdir()
        os.chmod(target, 0o555)
        try:
            store = SolveStore(target)
            key = solve_key("ctx", [("x", 1.0)], False)
            store.put(key, 5)  # must not raise
            assert store.get(key) == 5  # still cached in memory
        finally:
            os.chmod(target, 0o755)


def _concurrent_writer(args) -> int:
    root, writer_id = args
    store = SolveStore(root)
    for index in range(25):
        store.put(solve_key(f"w{writer_id}", [("x", float(index))], False),
                  writer_id * 1000 + index)
    store.close()
    return writer_id


class TestConcurrentWriters:
    def test_parallel_processes_share_one_store(self, tmp_path):
        """Pool workers writing concurrently, like DAG pool workers do."""
        with multiprocessing.Pool(4) as pool:
            pool.map(_concurrent_writer,
                     [(str(tmp_path), writer) for writer in range(4)])
        store = SolveStore(tmp_path)
        for writer in range(4):
            for index in range(25):
                key = solve_key(f"w{writer}", [("x", float(index))], False)
                assert store.get(key) == writer * 1000 + index
        assert store.stats.corrupt_skipped == 0


def _forked_put_get(args) -> tuple[int | None, int, bool]:
    """Write and read through the handle the parent resolved."""
    root, key = args
    store = SolveStore.resolve(root)
    before = store.stats.writes
    store.put(key, 77)
    return (store.get(key), store.stats.writes - before,
            store._pid == os.getpid())


class TestForkSafety:
    def test_forked_worker_opens_its_own_connection(self, tmp_path):
        """A handle resolved (and connected) in the parent is used by
        forked pool workers: each opens its own connection, and the
        database stays intact for everyone."""
        parent = SolveStore.resolve(str(tmp_path))
        parent.put("parent", 1)
        assert parent.get("parent") == 1  # connected before the fork
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            results = pool.map(_forked_put_get,
                               [(str(tmp_path), f"child-{index}")
                                for index in range(6)])
        for value, writes, own in results:
            assert value == 77
            assert writes == 1  # persisted, not merely memoised
            assert own
        assert [parent.get(f"child-{index}") for index in range(6)] == \
            [77] * 6
        assert parent.get("parent") == 1
        db = _db(tmp_path)
        assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        db.close()


class TestExitCheckpoint:
    def test_exit_removes_a_log_other_processes_left(self, tmp_path):
        """Pool workers that exit together can each leave the
        write-ahead log to the other; a parent that only resolved the
        store, and never connected, still checkpoints and removes it
        when it exits."""
        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(__file__).resolve().parents[1] / "src"))

        def python(script):
            subprocess.run([sys.executable, "-c", script], env=env,
                           check=True, timeout=60)

        log = tmp_path / f"v{SCHEMA_VERSION}" / f"{DB_NAME}-wal"
        python("import os\n"
               "from repro.solve.store import SolveStore\n"
               f"store = SolveStore({str(tmp_path)!r})\n"
               "store.put('key', 5)\n"
               "os._exit(0)\n")  # dies holding its connection
        assert log.exists()
        python("from repro.solve.store import SolveStore\n"
               f"SolveStore.resolve({str(tmp_path)!r})\n")
        assert not log.exists()
        assert SolveStore(tmp_path).get("key") == 5


class TestResolution:
    def test_off_values_disable(self, monkeypatch):
        for value in ("off", "OFF", "none", "0"):
            monkeypatch.setenv(CACHE_ENV, value)
            assert SolveStore.resolve() is None

    def test_override_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "off")
        store = SolveStore.resolve(str(tmp_path))
        assert store is not None and store.root == tmp_path
        assert SolveStore.resolve("off") is None

    def test_environment_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        store = SolveStore.resolve()
        assert store.root == tmp_path / "cache"

    def test_default_is_user_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        store = SolveStore.resolve()
        assert store.root == tmp_path / "repro" / "solve"


class TestWarmPipeline:
    """The tentpole property: a warm rerun performs zero backend solves."""

    def _estimate_all(self, name: str, cache: str):
        estimator = PWCETEstimator(load(name),
                                   EstimatorConfig(cache=cache), name=name)
        values = {mechanism: estimator.estimate(mechanism).pwcet()
                  for mechanism in MECHANISMS}
        return values, estimator.solver_stats

    @pytest.mark.parametrize("name", ("crc", "ud"))
    def test_warm_estimator_solves_nothing(self, tmp_path, name):
        cache = str(tmp_path / "store")
        cold_values, cold_stats = self._estimate_all(name, cache)
        assert cold_stats.ilp_solved > 0
        warm_values, warm_stats = self._estimate_all(name, cache)
        assert warm_values == cold_values
        assert warm_stats.ilp_solved == 0
        assert warm_stats.lp_solved == 0
        assert warm_stats.store_hits == cold_stats.ilp_solved

    def test_cache_off_disables_persistence(self, tmp_path):
        cache = str(tmp_path / "store")
        self._estimate_all("crc", cache)
        _, stats = self._estimate_all("crc", "off")
        assert stats.ilp_solved > 0
        assert stats.store_hits == 0

    def test_relaxed_mode_keys_apart(self, tmp_path):
        cache = str(tmp_path / "store")
        exact, _ = self._estimate_all("ud", cache)
        estimator = PWCETEstimator(load("ud"),
                                   EstimatorConfig(cache=cache,
                                                   relaxed=True), name="ud")
        relaxed = {mechanism: estimator.estimate(mechanism).pwcet()
                   for mechanism in MECHANISMS}
        for mechanism in MECHANISMS:
            assert relaxed[mechanism] >= exact[mechanism]


class TestWarmSuite:
    """Acceptance: the warm 25-benchmark suite solves zero backend ILPs
    and reproduces the cold numbers bit for bit."""

    def test_full_suite_warm_rerun(self, tmp_path):
        from repro.experiments import runner

        config = EstimatorConfig(cache=str(tmp_path / "store"))
        cold_stats = PipelineStats()
        cold = runner.run_suite(config, pipeline_stats=cold_stats)
        assert cold_stats.counters["ilp_solved"] > 0
        warm_stats = PipelineStats()
        warm = runner.run_suite(config, pipeline_stats=warm_stats)
        warm_totals = warm_stats.counters
        assert warm_totals["ilp_solved"] == 0
        assert warm_totals["lp_solved"] == 0
        assert warm_totals["fixpoints_run"] == 0
        # The plan pass satisfies every (mechanism, pfail) cell from
        # the persistent cell store — no solve stage runs at all, so
        # the warm run's work is zero rather than all-store-hits.
        assert warm_totals["cells_from_store"] == \
            3 * len(EVALUATED_BENCHMARKS)
        for before, after in zip(cold, warm):
            assert before.name == after.name
            assert before.wcet_fault_free == after.wcet_fault_free
            for mechanism in MECHANISMS:
                assert before.pwcet(mechanism) == after.pwcet(mechanism)

    def test_warm_suite_reads_only_its_own_rows(self, tmp_path,
                                                monkeypatch):
        """Warm cost scales with the query, not with the cache: next to
        thousands of foreign cells, the warm suite still makes exactly
        its 75 cell-store lookups and serves exactly 75 rows."""
        from repro.experiments import runner
        from repro.pipeline.cellstore import CellStore

        config = EstimatorConfig(cache=str(tmp_path / "store"))
        runner.run_suite(config)
        store = CellStore.resolve(config.cache)
        with store.batch():
            for index in range(2000):
                store.put(f"foreign-{index:05d}", bytes(8192))
        assert len(store) == 2000 + 75
        looked_up = []
        original = CellStore.get
        monkeypatch.setattr(CellStore, "get", lambda self, key: (
            looked_up.append(key), original(self, key))[1])
        hits = store.stats.hits
        stats = PipelineStats()
        runner.run_suite(config, pipeline_stats=stats)
        expected = 3 * len(EVALUATED_BENCHMARKS)
        assert len(looked_up) == len(set(looked_up)) == expected
        assert store.stats.hits - hits == expected
        assert stats.counters["cells_from_store"] == expected


class TestEstimatorContext:
    def test_geometry_separates_contexts(self):
        from repro.cache import CacheGeometry
        from repro.ipet import TimingModel
        timing = TimingModel()
        small = CacheGeometry.from_size(512, 2, 16)
        paper = CacheGeometry.from_size(1024, 4, 16)
        assert (store_context("cfg", small, timing)
                != store_context("cfg", paper, timing))

    def test_cfg_digest_stable_and_content_sensitive(self):
        first = load("crc").cfg.digest()
        assert first == load("crc").cfg.digest()
        assert first != load("ud").cfg.digest()
