"""`repro cache gc|export|import`: offline maintenance of the stores."""

from __future__ import annotations

import sqlite3

from repro.analysis.store import (CLASSIFY_SCHEMA_VERSION,
                                  ClassificationStore, classification_key)
from repro.cache import CacheGeometry
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.gc import compact_store, gc_cache
from repro.solve.store import DB_NAME, SCHEMA_VERSION, SolveStore, solve_key
from repro.suite import load

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)
#: The solve and classification stores' schema directories.
SOLVE_DIR = f"v{SCHEMA_VERSION}"
CLASSIFY_DIR = f"classify-v{CLASSIFY_SCHEMA_VERSION}"


def _populate_both_stores(root) -> None:
    """A real estimation writes both solve and classification rows."""
    estimator = PWCETEstimator(load("fibcall"),
                               EstimatorConfig(cache=str(root)),
                               name="fibcall")
    for mechanism in ("none", "srb", "rw"):
        estimator.estimate(mechanism)


def _db(root, directory=SOLVE_DIR) -> sqlite3.Connection:
    """A raw autocommit connection to one store's database."""
    return sqlite3.connect(root / directory / DB_NAME, isolation_level=None)


def _corrupt_rows(root, count: int) -> None:
    """Flip one byte of the first ``count`` solve rows' values."""
    db = _db(root)
    for key, value in db.execute("SELECT key, value FROM entries "
                                 "ORDER BY key LIMIT ?",
                                 (count,)).fetchall():
        db.execute("UPDATE entries SET value = ? WHERE key = ?",
                   (bytes([value[0] ^ 1]) + value[1:], key))
    db.close()


class TestCompaction:
    def test_vacuum_reclaims_deleted_pages(self, tmp_path):
        store = SolveStore(tmp_path)
        for index in range(400):
            store.put(solve_key("ctx", [("x", float(index))], False),
                      index)
        store.close()
        db = _db(tmp_path)
        db.execute("DELETE FROM entries WHERE key IN (SELECT key FROM "
                   "entries ORDER BY key LIMIT 300)")
        db.close()
        report = compact_store(tmp_path / SOLVE_DIR)
        assert report.entries == 100
        assert report.corrupt_dropped == 0
        assert report.bytes_saved > 0
        assert "vacuumed" in report.format_row()

    def test_corrupt_lines_are_dropped_for_good(self, tmp_path):
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.put(solve_key("ctx", [("y", 1.0)], False), 12)
        store.put(solve_key("ctx", [("z", 1.0)], False), 13)
        store.close()
        db = _db(tmp_path)
        db.execute("UPDATE entries SET crc = crc + 1 WHERE key != ?",
                   (key,))
        db.close()
        report = compact_store(tmp_path / SOLVE_DIR)
        assert report.corrupt_dropped == 2
        assert report.entries == 1
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert len(fresh) == 1
        assert fresh.stats.corrupt_skipped == 0

    def test_dry_run_touches_nothing(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1.0)], False), 5)
        store.close()
        _corrupt_rows(tmp_path, 1)
        store_dir = tmp_path / SOLVE_DIR
        before = {path.name: path.read_bytes()
                  for path in store_dir.iterdir()}
        report = compact_store(store_dir, dry_run=True)
        assert report.dry_run
        assert report.corrupt_dropped == 1
        assert "would vacuum" in report.format_row()
        assert {path.name: path.read_bytes()
                for path in store_dir.iterdir()} == before

    def test_empty_directory_reports_none(self, tmp_path):
        assert compact_store(tmp_path / SOLVE_DIR) is None


class TestGcCache:
    def test_compacts_both_stores_under_one_root(self, tmp_path):
        _populate_both_stores(tmp_path)
        reports = gc_cache(str(tmp_path))
        directories = {report.directory.rsplit("/", 1)[-1]
                       for report in reports}
        assert {SOLVE_DIR, CLASSIFY_DIR} <= directories
        for report in reports:
            assert report.corrupt_dropped == 0
            assert report.entries > 0

    def test_foreign_schema_directories_are_removed(self, tmp_path):
        _populate_both_stores(tmp_path)
        old = tmp_path / "v2"
        old.mkdir()
        (old / "shard-0-a.jsonl").write_text("{}\n")
        unrelated = tmp_path / "notes"
        unrelated.mkdir()
        dry = gc_cache(str(tmp_path), dry_run=True)
        assert [report.removed for report in dry].count(True) == 1
        assert old.is_dir()
        reports = gc_cache(str(tmp_path))
        (removed,) = [report for report in reports if report.removed]
        assert removed.directory == str(old)
        assert "removed foreign schema directory" in removed.format_row()
        assert not old.exists()
        assert unrelated.is_dir()  # only schema-named directories go
        assert (tmp_path / SOLVE_DIR / DB_NAME).is_file()

    def test_warm_run_after_gc_is_still_fully_cached(self, tmp_path):
        _populate_both_stores(tmp_path)
        gc_cache(str(tmp_path))
        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache=str(tmp_path)),
                                   name="fibcall")
        # Fresh handles, so the vacuumed databases are what gets read.
        estimator._analysis._store = ClassificationStore(tmp_path)
        fresh_store = SolveStore(tmp_path)
        estimator._planner.attach_store(
            fresh_store, estimator._planner._store_context)
        for mechanism in ("none", "srb", "rw"):
            estimator.estimate(mechanism)
        stats = estimator.stats_summary()
        assert stats["ilp_solved"] == 0
        assert stats["fixpoints_run"] == 0

    def test_off_means_nothing_to_compact(self):
        assert gc_cache("off") == []

    def test_classification_entries_survive_compaction(self, tmp_path):
        store = ClassificationStore(tmp_path)
        key = classification_key("cfg", GEOMETRY, 2)
        store.put(key, {"blocks": [[0, [0, 2]]]})
        store.close()
        gc_cache(str(tmp_path))
        assert ClassificationStore(tmp_path).get(key) == \
            {"blocks": [[0, [0, 2]]]}


class TestCli:
    def test_cache_gc_command(self, tmp_path, capsys):
        from repro.cli import main
        _populate_both_stores(tmp_path)
        assert main(["cache", "gc", "--dry-run",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would save" in out
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "saved" in out
        # Idempotent: a second gc vacuums the already-vacuumed stores.
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0

    def test_cache_gc_on_missing_directory(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["cache", "gc",
                     "--cache", str(tmp_path / "empty")]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_cache_gc_reports_corrupt_line_recovery(self, tmp_path,
                                                    capsys):
        """Silent store repair made visible: corrupt rows that every
        reader served as misses show up as an explicit recovery count,
        in the dry run too."""
        from repro.cli import main
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1)], False), 7)
        store.put(solve_key("ctx", [("y", 1)], False), 8)
        store.put(solve_key("ctx", [("z", 1)], False), 9)
        store.close()
        _corrupt_rows(tmp_path, 2)
        assert main(["cache", "gc", "--dry-run",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would drop 2 corrupt row(s) " \
               "recovered by re-computation" in out
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dropped 2 corrupt row(s)" in out
        # The repaired cache is clean: no recovery line on a re-run.
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0
        assert "corrupt row" not in capsys.readouterr().out

    def test_corrupt_recovery_counts_surface_in_stats_summary(
            self, tmp_path):
        """The estimator's ``stats_summary()`` exposes each store's
        corrupt-row count, so a degraded store is observable without
        running gc."""
        _populate_both_stores(tmp_path)
        db = _db(tmp_path)
        (key,) = db.execute("SELECT key FROM entries "
                            "WHERE kind = 'artefact'").fetchone()
        db.execute("UPDATE entries SET crc = crc + 1 WHERE key = ?",
                   (key,))
        db.close()
        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache=str(tmp_path)),
                                   name="fibcall")
        estimator.estimate("none")
        summary = estimator.stats_summary()
        assert summary["store_corrupt_skipped"] == 1
        assert summary["classify_store_corrupt_skipped"] == 0
        assert summary["cell_store_corrupt_skipped"] == 0


class TestExportImport:
    """`repro cache export/import`: store sharing across machines."""

    def test_round_trip_seeds_a_fresh_machine(self, tmp_path):
        from repro.solve.gc import export_cache, import_cache
        source = tmp_path / "machine-a"
        target = tmp_path / "machine-b"
        tarball = tmp_path / "seed.tar.gz"
        _populate_both_stores(source)
        before = {path: path.read_bytes()
                  for path in source.rglob(DB_NAME)}

        exported = export_cache(tarball, str(source))
        assert {report.directory for report in exported} == \
            {SOLVE_DIR, CLASSIFY_DIR}
        assert all(report.entries > 0 for report in exported)
        # The live source store is copied, never modified.
        assert {path: path.read_bytes()
                for path in source.rglob(DB_NAME)} == before

        imported = import_cache(tarball, str(target))
        assert sum(report.imported for report in imported) == \
            sum(report.entries for report in exported)

        # Machine B is now fully warm: zero fixpoints, zero ILPs.
        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache=str(target)),
                                   name="fibcall")
        for mechanism in ("none", "srb", "rw"):
            estimator.estimate(mechanism)
        summary = estimator.stats_summary()
        assert summary["fixpoints_run"] == 0
        assert summary["ilp_solved"] == 0
        assert summary["lp_solved"] == 0

    def test_import_is_idempotent_and_merges(self, tmp_path):
        from repro.solve.gc import export_cache, import_cache
        source = tmp_path / "src"
        target = tmp_path / "dst"
        tarball = tmp_path / "seed.tar.gz"
        _populate_both_stores(source)
        export_cache(tarball, str(source))
        first = import_cache(tarball, str(target))
        again = import_cache(tarball, str(target))
        assert sum(report.imported for report in first) > 0
        assert sum(report.imported for report in again) == 0
        assert sum(report.already_present for report in again) == \
            sum(report.imported for report in first)
        # One database per store directory, holding the merged rows.
        for report in first:
            files = {path.name for path in
                     (target / report.directory).iterdir()}
            assert files == {DB_NAME}
            db = _db(target, report.directory)
            assert db.execute("SELECT COUNT(*) FROM entries").fetchone() \
                == (report.imported,)
            db.close()

    def test_import_never_clobbers_local_entries(self, tmp_path):
        from repro.solve.gc import export_cache, import_cache
        source = tmp_path / "src"
        target = tmp_path / "dst"
        tarball = tmp_path / "seed.tar.gz"
        key = solve_key("ctx", [("x", 1.0)], False)
        remote = SolveStore(source)
        remote.put(key, 41)
        remote.close()
        local = SolveStore(target)
        local.put(key, 99)  # disagreeing local value
        local.put(solve_key("ctx", [("y", 1.0)], False), 7)
        local.close()
        export_cache(tarball, str(source))
        reports = import_cache(tarball, str(target))
        (report,) = reports
        assert report.conflicts_kept_local == 1
        assert report.imported == 0
        assert SolveStore(target).get(key) == 99  # local wins

    def test_import_validates_lines_and_member_paths(self, tmp_path):
        import tarfile

        from repro.solve.gc import import_cache
        from repro.solve.store import checksum, open_db
        seed = tmp_path / "seed"
        seed.mkdir()
        db = open_db(seed / DB_NAME)
        db.execute("INSERT INTO entries VALUES (?, ?, ?, ?)",
                   ("solve", "a" * 64, checksum("solve", "a" * 64, b"5"),
                    b"5"))
        db.execute("INSERT INTO entries VALUES ('solve', ?, 1, ?)",
                   ("b" * 64, b"6"))  # checksum mismatch
        db.close()
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"not a database at all")
        tarball = tmp_path / "seed.tar.gz"
        with tarfile.open(tarball, "w:gz") as archive:
            archive.add(seed / DB_NAME, arcname=f"{SOLVE_DIR}/{DB_NAME}")
            archive.add(seed / DB_NAME, arcname=f"../escape/{DB_NAME}")
            archive.add(seed / DB_NAME, arcname=f"notastore/{DB_NAME}")
            archive.add(seed / DB_NAME, arcname=f"v1/{DB_NAME}")
            archive.add(garbage, arcname=f"{CLASSIFY_DIR}/{DB_NAME}")
        target = tmp_path / "dst"
        reports = import_cache(tarball, str(target))
        # Only the current stores' members were considered.
        by_directory = {report.directory: report for report in reports}
        assert set(by_directory) == {SOLVE_DIR, CLASSIFY_DIR}
        solve, classify = by_directory[SOLVE_DIR], by_directory[CLASSIFY_DIR]
        assert solve.imported == 1
        assert solve.corrupt_dropped == 1
        assert classify.imported == 0 and classify.corrupt_dropped == 1
        assert not (tmp_path / "escape").exists()
        assert not (target / "v1").exists()
        assert SolveStore(target).get("a" * 64) == 5

    def test_export_disabled_cache_raises(self, tmp_path):
        import pytest

        from repro.errors import ConfigurationError
        from repro.solve.gc import export_cache, import_cache
        with pytest.raises(ConfigurationError):
            export_cache(tmp_path / "x.tar.gz", "off")
        with pytest.raises(ConfigurationError):
            import_cache(tmp_path / "x.tar.gz", "off")

    def test_cli_export_import_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        _populate_both_stores(tmp_path / "src")
        tarball = str(tmp_path / "seed.tar.gz")
        assert main(["cache", "export", tarball,
                     "--cache", str(tmp_path / "src")]) == 0
        assert "packed" in capsys.readouterr().out
        assert main(["cache", "import", tarball,
                     "--cache", str(tmp_path / "dst")]) == 0
        assert "merged" in capsys.readouterr().out
        # Empty archive edge: exporting an empty store packs nothing.
        assert main(["cache", "export", str(tmp_path / "empty.tar.gz"),
                     "--cache", str(tmp_path / "nothing")]) == 0
        assert "nothing to pack" in capsys.readouterr().out
        assert main(["cache", "import", str(tmp_path / "empty.tar.gz"),
                     "--cache", str(tmp_path / "dst")]) == 0
        assert "no stores found" in capsys.readouterr().out
