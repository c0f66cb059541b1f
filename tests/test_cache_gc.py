"""`repro cache gc`: offline compaction of the persistent stores."""

from __future__ import annotations

import json

from repro.analysis.store import ClassificationStore, classification_key
from repro.cache import CacheGeometry
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.gc import GC_SHARD_NAME, compact_shard_dir, gc_cache
from repro.solve.store import SCHEMA_VERSION, SolveStore, solve_key
from repro.suite import load

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)
#: The solve store's schema directory under a cache root.
SOLVE_DIR = f"v{SCHEMA_VERSION}"


def _populate_both_stores(root) -> None:
    """A real estimation writes both solve and classification shards."""
    estimator = PWCETEstimator(load("fibcall"),
                               EstimatorConfig(cache=str(root)),
                               name="fibcall")
    for mechanism in ("none", "srb", "rw"):
        estimator.estimate(mechanism)


class TestCompaction:
    def test_folds_shards_into_one_sorted_file(self, tmp_path):
        store = SolveStore(tmp_path)
        for index in range(5):
            store.put(solve_key("ctx", [("x", float(index))], False), index)
        store.close()
        shard_dir = tmp_path / SOLVE_DIR
        # A second writer process that re-derived the same entries:
        # identical lines in a second shard, as concurrent cold runs do.
        first = next(shard_dir.glob("shard-*.jsonl"))
        (shard_dir / "shard-99999-twin.jsonl").write_text(first.read_text())
        assert len(list(shard_dir.glob("shard-*.jsonl"))) == 2

        report = compact_shard_dir(shard_dir)
        assert report.shards_before == 2
        assert report.entries == 5
        assert report.duplicates_dropped == 5
        shards = list(shard_dir.glob("shard-*.jsonl"))
        assert [shard.name for shard in shards] == [GC_SHARD_NAME]
        keys = [json.loads(line)["k"]
                for line in shards[0].read_text().splitlines()]
        assert keys == sorted(keys)

    def test_corrupt_lines_are_dropped_for_good(self, tmp_path):
        store = SolveStore(tmp_path)
        key = solve_key("ctx", [("x", 1.0)], False)
        store.put(key, 5)
        store.close()
        shard_dir = tmp_path / SOLVE_DIR
        shard = next(shard_dir.glob("shard-*.jsonl"))
        with open(shard, "a") as handle:
            handle.write('{"t":"solve","k":"abc","v":12\n')  # truncated
            handle.write("garbage\n")
        report = compact_shard_dir(shard_dir)
        assert report.corrupt_dropped == 2
        assert report.entries == 1
        fresh = SolveStore(tmp_path)
        assert fresh.get(key) == 5
        assert fresh.stats.corrupt_skipped == 0

    def test_dry_run_touches_nothing(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1.0)], False), 5)
        store.close()
        shard_dir = tmp_path / SOLVE_DIR
        before = sorted(path.name for path in shard_dir.iterdir())
        report = compact_shard_dir(shard_dir, dry_run=True)
        assert report.dry_run
        assert "would fold" in report.format_row()
        assert sorted(path.name for path in shard_dir.iterdir()) == before

    def test_empty_directory_reports_none(self, tmp_path):
        assert compact_shard_dir(tmp_path / SOLVE_DIR) is None


class TestGcCache:
    def test_compacts_both_stores_under_one_root(self, tmp_path):
        _populate_both_stores(tmp_path)
        reports = gc_cache(str(tmp_path))
        directories = {report.directory.rsplit("/", 1)[-1]
                       for report in reports}
        assert any(name.startswith("v") for name in directories)
        assert any(name.startswith("classify-v") for name in directories)
        for report in reports:
            assert report.corrupt_dropped == 0
            assert report.entries > 0

    def test_warm_run_after_gc_is_still_fully_cached(self, tmp_path):
        _populate_both_stores(tmp_path)
        gc_cache(str(tmp_path))
        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache=str(tmp_path)),
                                   name="fibcall")
        # Fresh handles, so the compacted shard is what gets read.
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
        # Idempotent: a second gc folds the already-folded shard.
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0

    def test_cache_gc_on_missing_directory(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["cache", "gc",
                     "--cache", str(tmp_path / "empty")]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_cache_gc_reports_corrupt_line_recovery(self, tmp_path,
                                                    capsys):
        """Silent store repair made visible: torn/corrupt lines that
        every reader skipped show up as an explicit recovery count, in
        the dry run too."""
        from repro.cli import main
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1)], False), 7)
        store.close()
        shard = next((tmp_path / SOLVE_DIR).glob("shard-*.jsonl"))
        with shard.open("a") as handle:
            handle.write('{"c":1,"k":"tampered","t":"solve","v":1}\n')
            handle.write('{"torn half-li')  # a killed writer's tail
        assert main(["cache", "gc", "--dry-run",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would drop 2 corrupt/torn line(s) " \
               "recovered by re-computation" in out
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dropped 2 corrupt/torn line(s)" in out
        # The repaired cache is clean: no recovery line on a re-run.
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 0
        assert "corrupt/torn" not in capsys.readouterr().out

    def test_corrupt_recovery_counts_surface_in_stats_summary(
            self, tmp_path):
        """The estimator's ``stats_summary()`` exposes each store's
        skipped-line count, so degraded shards are observable without
        running gc."""
        store = SolveStore(tmp_path)
        store.put(solve_key("ctx", [("x", 1)], False), 7)
        store.close()
        shard = next((tmp_path / SOLVE_DIR).glob("shard-*.jsonl"))
        with shard.open("a") as handle:
            handle.write('{"torn half-li')
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

        exported = export_cache(tarball, str(source))
        assert {report.directory for report in exported} == \
            {SOLVE_DIR, "classify-v1"}
        assert all(report.entries > 0 for report in exported)
        # The live source store is packed, never modified.
        assert not list(source.glob(f"*/{GC_SHARD_NAME}"))

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
        # Exactly one import shard per schema directory: the rerun
        # appended nothing.
        for directory in (SOLVE_DIR, "classify-v1"):
            shards = list((target / directory).glob("shard-*.jsonl"))
            assert len(shards) == 1

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
        import io
        import tarfile

        from repro.solve.gc import import_cache
        from repro.solve.store import encode_shard_line
        tarball = tmp_path / "seed.tar.gz"
        good = encode_shard_line("solve", "a" * 64, 5)
        with tarfile.open(tarball, "w:gz") as archive:
            def add(name, text):
                payload = text.encode("utf-8")
                member = tarfile.TarInfo(name=name)
                member.size = len(payload)
                archive.addfile(member, io.BytesIO(payload))
            add(f"{SOLVE_DIR}/shard-0-ok.jsonl", good + "garbage line\n")
            add("../escape/shard-0-evil.jsonl", good)
            add("notastore/shard-0-alien.jsonl", good)
        target = tmp_path / "dst"
        reports = import_cache(tarball, str(target))
        (report,) = reports  # only the valid solve-store member was considered
        assert report.directory == SOLVE_DIR
        assert report.imported == 1
        assert report.corrupt_dropped == 1
        assert not (tmp_path / "escape").exists()
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
        assert "no store shards" in capsys.readouterr().out
