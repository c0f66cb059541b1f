"""The persistent classification store: identity, recovery, warm runs.

Mirrors ``tests/test_solve_store.py`` for the analysis-side store: a
warm run must decode exactly the tables a cold run computed (running
**zero** fixpoints), and anything unreadable on disk must degrade to
recomputation, never to a wrong classification.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.analysis import CacheAnalysis, Chmc, Classification
from repro.analysis.chmc import ALWAYS_HIT, ALWAYS_MISS, GLOBAL_SCOPE
from repro.analysis.store import (CLASSIFY_SCHEMA_VERSION,
                                  ClassificationStore, classification_key,
                                  decode_table, encode_table)
from repro.cache import CacheGeometry
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.store import DB_NAME, checksum, json_bytes
from repro.suite import load

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)
MECHANISMS = ("none", "srb", "rw")


def _db(root) -> sqlite3.Connection:
    """A raw autocommit connection to the classification store."""
    return sqlite3.connect(
        root / f"classify-v{CLASSIFY_SCHEMA_VERSION}" / DB_NAME,
        isolation_level=None)


class TestTableCodec:
    def test_round_trip_preserves_every_classification(self):
        table = {
            0: (ALWAYS_HIT, ALWAYS_MISS),
            3: (Classification(chmc=Chmc.FIRST_MISS, scope=GLOBAL_SCOPE),
                Classification(chmc=Chmc.FIRST_MISS, scope=7)),
            5: (),
        }
        assert decode_table(encode_table(table)) == table

    def test_malformed_values_decode_to_none(self):
        assert decode_table(None) is None
        assert decode_table({"blocks": [[0, [99]]]}) is None
        assert decode_table({"blocks": [[0, [[2, 7]]]]}) is None
        assert decode_table({"wrong": []}) is None

    def test_key_separates_every_dimension(self):
        base = classification_key("cfg", GEOMETRY, 4)
        assert base == classification_key("cfg", GEOMETRY, 4)
        assert base != classification_key("other", GEOMETRY, 4)
        assert base != classification_key("cfg", GEOMETRY, 3)
        assert base != classification_key("cfg", GEOMETRY, 4, kind="srb")
        small = CacheGeometry(sets=4, ways=2, block_bytes=16)
        assert base != classification_key("cfg", small, 2)


class TestRoundTrip:
    def test_entries_survive_reopen(self, tmp_path):
        store = ClassificationStore(tmp_path)
        key = classification_key("cfg", GEOMETRY, 2)
        value = encode_table({0: (ALWAYS_HIT,)})
        store.put(key, value)
        store.close()
        assert ClassificationStore(tmp_path).get(key) == value

    def test_duplicate_put_is_idempotent(self, tmp_path):
        store = ClassificationStore(tmp_path)
        key = classification_key("cfg", GEOMETRY, 2)
        store.put(key, {"blocks": []})
        store.put(key, {"blocks": []})
        assert store.stats.writes == 1
        store.close()
        assert len(ClassificationStore(tmp_path)) == 1

    def test_entries_live_under_versioned_directory(self, tmp_path):
        store = ClassificationStore(tmp_path)
        store.put(classification_key("cfg", GEOMETRY, 1), {"blocks": []})
        assert (tmp_path / f"classify-v{CLASSIFY_SCHEMA_VERSION}").is_dir()

    def test_coexists_with_solve_store(self, tmp_path):
        """Both stores share one root without clobbering each other."""
        from repro.solve.store import SolveStore, solve_key
        solve = SolveStore(tmp_path)
        solve.put(solve_key("ctx", [("x", 1.0)], False), 41)
        classify = ClassificationStore(tmp_path)
        key = classification_key("cfg", GEOMETRY, 4)
        classify.put(key, {"blocks": []})
        assert SolveStore(tmp_path).get(
            solve_key("ctx", [("x", 1.0)], False)) == 41
        assert ClassificationStore(tmp_path).get(key) == {"blocks": []}


class TestCorruptionRecovery:
    def _populated(self, tmp_path):
        store = ClassificationStore(tmp_path)
        key = classification_key("cfg", GEOMETRY, 2)
        store.put(key, encode_table({0: (ALWAYS_MISS,)}))
        store.close()
        return store, key

    def test_truncated_tail_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        other = classification_key("cfg", GEOMETRY, 3)
        store.put(other, encode_table({0: (ALWAYS_HIT,)}))
        store.close()
        db = _db(tmp_path)  # a torn value: cut short, checksum kept
        db.execute("UPDATE entries SET value = substr(value, 1, 9) "
                   "WHERE key = ?", (other,))
        db.close()
        fresh = ClassificationStore(tmp_path)
        assert fresh.get(key) == encode_table({0: (ALWAYS_MISS,)})
        assert fresh.get(other) is None
        assert fresh.stats.corrupt_skipped == 1

    def test_garbage_bytes_are_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        db = _db(tmp_path)
        db.execute("INSERT INTO entries VALUES ('classify', ?, 7, ?)",
                   ("0" * 64, b"\x00\xffgarbage\n{]"))
        db.close()
        fresh = ClassificationStore(tmp_path)
        assert fresh.get(key) is not None
        assert fresh.get("0" * 64) is None
        assert fresh.stats.corrupt_skipped >= 1

    def test_checksum_mismatch_is_skipped(self, tmp_path):
        store, key = self._populated(tmp_path)
        db = _db(tmp_path)  # tamper, keep the checksum
        db.execute("UPDATE entries SET value = ? WHERE key = ?",
                   (json_bytes({"blocks": [[0, [0]]]}), key))
        db.close()
        fresh = ClassificationStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_skipped == 1

    def test_foreign_kind_is_skipped(self, tmp_path):
        """A solve entry in the classify database is never served."""
        store, key = self._populated(tmp_path)
        db = _db(tmp_path)
        db.execute("INSERT INTO entries VALUES ('solve', ?, ?, ?)",
                   ("0" * 64, checksum("solve", "0" * 64, b"5"), b"5"))
        db.close()
        fresh = ClassificationStore(tmp_path)
        assert fresh.get("0" * 64) is None
        assert fresh.get(key) is not None
        assert fresh.stats.corrupt_skipped == 0

    def test_malformed_entry_degrades_to_recomputation(self, tmp_path):
        """A valid row whose *payload* no longer decodes must only
        cost a recomputation, never a wrong table."""
        cfg = load("fibcall").cfg
        cache = str(tmp_path)
        cold = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        expected = cold.classification(4).count_by_chmc()
        cold.store.close()
        # Overwrite every entry with structurally valid garbage (the
        # row checksums, but the table payload is junk).
        junk = json_bytes({"blocks": [[0, [99]]]})
        db = _db(tmp_path)
        for kind, key in db.execute(
                "SELECT kind, key FROM entries").fetchall():
            db.execute("UPDATE entries SET value = ?, crc = ? "
                       "WHERE kind = ? AND key = ?",
                       (junk, checksum(kind, key, junk), kind, key))
        db.close()
        fresh = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        fresh._store = ClassificationStore(tmp_path)
        assert fresh.classification(4).count_by_chmc() == expected
        assert fresh.stats.fixpoints_run > 0  # recomputed, not decoded
        fresh._store.close()
        # The recompute must also *repair* the store: its corrected
        # row overwrites the junk, so the next run is warm again
        # instead of recomputing forever.
        repaired = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        repaired._store = ClassificationStore(tmp_path)
        assert repaired.classification(4).count_by_chmc() == expected
        assert repaired.stats.fixpoints_run == 0


class TestResolution:
    def test_off_disables(self):
        assert ClassificationStore.resolve("off") is None

    def test_shares_root_with_solve_store(self, tmp_path):
        from repro.solve.store import SolveStore
        classify = ClassificationStore.resolve(str(tmp_path))
        solve = SolveStore.resolve(str(tmp_path))
        assert classify is not None
        assert classify.root == solve.root

    def test_handles_are_memoised(self, tmp_path):
        first = ClassificationStore.resolve(str(tmp_path))
        second = ClassificationStore.resolve(str(tmp_path))
        assert first is second


class TestWarmAnalysis:
    """The tentpole property: a warm analysis runs zero fixpoints."""

    def _classify_all(self, cfg, cache):
        analysis = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        tables = {assoc: analysis.classification(assoc).count_by_chmc()
                  for assoc in range(GEOMETRY.ways, -1, -1)}
        srb = analysis.srb_always_hits()
        return tables, srb, analysis.stats

    @pytest.mark.parametrize("name", ("crc", "ud"))
    def test_warm_analysis_runs_zero_fixpoints(self, tmp_path, name):
        cache = str(tmp_path / "store")
        cfg = load(name).cfg
        cold_tables, cold_srb, cold_stats = self._classify_all(cfg, cache)
        assert cold_stats.fixpoints_run > 0
        assert cold_stats.classify_store_writes > 0
        warm_tables, warm_srb, warm_stats = self._classify_all(cfg, cache)
        assert warm_tables == cold_tables
        assert warm_srb == cold_srb
        assert warm_stats.fixpoints_run == 0
        assert warm_stats.tables_built == 0
        assert warm_stats.classify_store_hits > 0

    def test_tables_are_bit_identical_after_round_trip(self, tmp_path):
        cache = str(tmp_path / "store")
        cfg = load("crc").cfg
        cold = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        warm = CacheAnalysis(cfg, GEOMETRY, cache=cache)
        for assoc in range(GEOMETRY.ways + 1):
            for (ref_c, cls_c), (ref_w, cls_w) in zip(
                    cold.classification(assoc).items(),
                    warm.classification(assoc).items()):
                assert ref_c == ref_w
                assert cls_c == cls_w

    def test_cache_off_disables_persistence(self):
        cfg = load("fibcall").cfg
        first = CacheAnalysis(cfg, GEOMETRY, cache="off")
        first.classification(4)
        second = CacheAnalysis(cfg, GEOMETRY, cache="off")
        second.classification(4)
        assert second.stats.fixpoints_run > 0
        assert second.store is None


class TestWarmEstimator:
    """End to end: warm estimations run zero fixpoints *and* zero
    backend ILPs, with identical pWCETs."""

    def test_estimator_warm_rerun(self, tmp_path):
        cache = str(tmp_path / "store")

        def estimate_all():
            estimator = PWCETEstimator(load("crc"),
                                       EstimatorConfig(cache=cache),
                                       name="crc")
            values = {mechanism: estimator.estimate(mechanism).pwcet()
                      for mechanism in MECHANISMS}
            return values, {**estimator.solver_stats.as_dict(),
                            **estimator.analysis.stats.as_dict()}

        cold_values, cold_stats = estimate_all()
        assert cold_stats["fixpoints_run"] > 0
        assert cold_stats["ilp_solved"] > 0
        warm_values, warm_stats = estimate_all()
        assert warm_values == cold_values
        assert warm_stats["fixpoints_run"] == 0
        assert warm_stats["ilp_solved"] == 0
        assert warm_stats["classify_store_hits"] > 0
