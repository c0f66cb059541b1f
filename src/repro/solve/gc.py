"""Offline maintenance of the persistent stores.

Each store is one SQLite database, ``<root>/<schema dir>/store.db``,
for the solve store (``v<N>/``), the classification store
(``classify-v<N>/``) and the cell store (``cells-v<N>/``):

* ``repro cache gc`` deletes the directories of other schema versions
  (their entries can never be read again), drops rows whose checksum
  fails, and ``VACUUM``s each live database;
* ``repro cache export`` packs a consistent copy of every live
  database (``Connection.backup``) into one tarball, published by an
  atomic rename;
* ``repro cache import`` merges such a tarball content-addressed:
  every incoming row's checksum is validated, and ``INSERT OR IGNORE``
  adds novel keys while existing keys are never clobbered.

SQLite commits are atomic, so none of this needs an fsync knob, and a
concurrent run only waits on the maintenance transaction.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sqlite3
import tarfile
import tempfile
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.solve.store import (DB_NAME, SCHEMA_VERSION, cache_root,
                               checksum, open_db)


def store_dirs() -> tuple[str, ...]:
    """The schema directory names of the current stores."""
    from repro.analysis.store import CLASSIFY_SCHEMA_VERSION
    from repro.pipeline.cellstore import CELL_SCHEMA_VERSION

    return (f"v{SCHEMA_VERSION}", f"classify-v{CLASSIFY_SCHEMA_VERSION}",
            f"cells-v{CELL_SCHEMA_VERSION}")


def _is_schema_dir_name(name: str) -> bool:
    """A ``v<N>`` / ``classify-v<N>`` / ``cells-v<N>`` directory name
    of any version (gc only ever deletes directories named like this)."""
    for prefix in ("classify-v", "cells-v", "v"):
        if name.startswith(prefix):
            return name[len(prefix):].isdigit()
    return False


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(child.stat().st_size for child in path.rglob("*")
               if child.is_file())


def _root(cache: str | None, verb: str) -> pathlib.Path:
    root = cache_root(cache)
    if root is None:
        raise ConfigurationError(
            f"cannot {verb}: the persistent cache is disabled "
            "(REPRO_CACHE=off)")
    return root


@dataclass(frozen=True)
class CompactionReport:
    """What gc did (or would do) to one schema directory."""

    directory: str
    #: Rows kept (0 for a removed foreign-schema directory).
    entries: int
    corrupt_dropped: int
    bytes_before: int
    bytes_after: int
    dry_run: bool
    #: A directory of another schema version, deleted whole.
    removed: bool = False

    @property
    def bytes_saved(self) -> int:
        return self.bytes_before - self.bytes_after

    def format_row(self) -> str:
        if self.removed:
            action = "would remove" if self.dry_run else "removed"
            return (f"{self.directory}: {action} foreign schema directory "
                    f"({self.bytes_before} bytes)")
        action = "would vacuum" if self.dry_run else "vacuumed"
        return (f"{self.directory}: {action} {self.entries} entr(ies); "
                f"dropped {self.corrupt_dropped} corrupt; "
                f"{self.bytes_before} -> {self.bytes_after} bytes "
                f"({self.bytes_saved:+d} saved)")


def _corrupt_rows(connection: sqlite3.Connection) -> tuple[int, list]:
    """Row count and the (kind, key) of every row failing its checksum."""
    rows = 0
    corrupt = []
    for kind, key, crc, value in connection.execute(
            "SELECT kind, key, crc, value FROM entries"):
        rows += 1
        if not isinstance(value, bytes) or checksum(kind, key, value) != crc:
            corrupt.append((kind, key))
    return rows, corrupt


def compact_store(store_dir: str | os.PathLike, *,
                  dry_run: bool = False) -> CompactionReport | None:
    """Drop corrupt rows and ``VACUUM`` one store; ``None`` when the
    directory holds no database."""
    store_dir = pathlib.Path(store_dir)
    path = store_dir / DB_NAME
    if not path.is_file():
        return None
    before = _dir_bytes(store_dir)
    connection = open_db(path)
    try:
        rows, corrupt = _corrupt_rows(connection)
        if dry_run:
            (free,) = connection.execute("PRAGMA freelist_count").fetchone()
            (page,) = connection.execute("PRAGMA page_size").fetchone()
            after = before - free * page
        else:
            connection.executemany(
                "DELETE FROM entries WHERE kind = ? AND key = ?", corrupt)
            connection.execute("VACUUM")
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        connection.close()
    if not dry_run:
        after = _dir_bytes(store_dir)
    return CompactionReport(
        directory=str(store_dir), entries=rows - len(corrupt),
        corrupt_dropped=len(corrupt), bytes_before=before,
        bytes_after=after, dry_run=dry_run)


def gc_cache(cache: str | None = None, *,
             dry_run: bool = False) -> list[CompactionReport]:
    """Maintain the cache root selected like the stores select it.

    ``cache`` follows the ``REPRO_CACHE`` convention (``None`` defers
    to the environment / default directory; ``"off"`` means there is
    nothing to maintain).  Foreign-schema directories are removed
    first, then every live store is compacted.
    """
    root = cache_root(cache)
    if root is None or not root.is_dir():
        return []
    live = store_dirs()
    reports = []
    for path in sorted(root.iterdir()):
        if path.is_dir() and _is_schema_dir_name(path.name) \
                and path.name not in live:
            size = _dir_bytes(path)
            if not dry_run:
                shutil.rmtree(path, ignore_errors=True)
            reports.append(CompactionReport(
                directory=str(path), entries=0, corrupt_dropped=0,
                bytes_before=size, bytes_after=0, dry_run=dry_run,
                removed=True))
    for name in live:
        report = compact_store(root / name, dry_run=dry_run)
        if report is not None:
            reports.append(report)
    return reports


@dataclass(frozen=True)
class ExportReport:
    """One store packed into a cache tarball."""

    directory: str
    entries: int
    bytes: int

    def format_row(self) -> str:
        return (f"{self.directory}: packed {self.entries} entr(ies), "
                f"{self.bytes} bytes")


@dataclass(frozen=True)
class ImportReport:
    """One store merged from a cache tarball."""

    directory: str
    entries_seen: int
    imported: int
    already_present: int
    conflicts_kept_local: int
    corrupt_dropped: int

    def format_row(self) -> str:
        return (f"{self.directory}: imported {self.imported} of "
                f"{self.entries_seen} entr(ies) "
                f"({self.already_present} already present, "
                f"{self.conflicts_kept_local} conflicting kept local, "
                f"{self.corrupt_dropped} corrupt dropped)")


def export_cache(tarball: str | os.PathLike,
                 cache: str | None = None) -> list[ExportReport]:
    """Pack a consistent copy of every store into a tarball.

    Each live database is copied with SQLite's online backup (a
    concurrent writer is never blocked for long and never torn), the
    copies are packed as ``<schema dir>/store.db``, and the tarball is
    published by an atomic rename: a killed export never leaves a
    truncated archive at the target path.
    """
    root = _root(cache, "export")
    target = pathlib.Path(tarball)
    tmp = target.parent / f".{target.name}.tmp-{os.getpid()}"
    reports = []
    try:
        with tempfile.TemporaryDirectory() as scratch, \
                tarfile.open(tmp, "w:gz") as archive:
            for name in store_dirs():
                path = root / name / DB_NAME
                if not path.is_file():
                    continue
                copy = pathlib.Path(scratch) / name
                source = sqlite3.connect(path)
                destination = sqlite3.connect(copy)
                try:
                    source.backup(destination)
                    (entries,) = destination.execute(
                        "SELECT COUNT(*) FROM entries").fetchone()
                finally:
                    destination.close()
                    source.close()
                archive.add(copy, arcname=f"{name}/{DB_NAME}")
                reports.append(ExportReport(directory=name, entries=entries,
                                            bytes=copy.stat().st_size))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return reports


def _merge(incoming: pathlib.Path, store_dir: pathlib.Path
           ) -> ImportReport:
    """``INSERT OR IGNORE`` every valid row of one exported database."""
    seen = imported = already = conflicts = corrupt = 0
    source = sqlite3.connect(incoming)
    store_dir.mkdir(parents=True, exist_ok=True)
    local = open_db(store_dir / DB_NAME)
    try:
        rows = source.execute("SELECT kind, key, crc, value FROM entries")
        local.execute("BEGIN IMMEDIATE")
        for kind, key, crc, value in rows:
            if not isinstance(value, bytes) \
                    or checksum(kind, key, value) != crc:
                corrupt += 1
                continue
            seen += 1
            if local.execute("INSERT OR IGNORE INTO entries "
                             "(kind, key, crc, value) VALUES (?, ?, ?, ?)",
                             (kind, key, crc, value)).rowcount:
                imported += 1
                continue
            (existing,) = local.execute(
                "SELECT value FROM entries WHERE kind = ? AND key = ?",
                (kind, key)).fetchone()
            if existing == value:
                already += 1
            else:
                conflicts += 1
        local.execute("COMMIT")
    except sqlite3.DatabaseError:
        # Not a store database (or a torn one): nothing is merged.
        if local.in_transaction:
            local.execute("ROLLBACK")
        seen = imported = already = conflicts = 0
        corrupt = 1
    finally:
        local.close()
        source.close()
    return ImportReport(directory=store_dir.name, entries_seen=seen,
                        imported=imported, already_present=already,
                        conflicts_kept_local=conflicts,
                        corrupt_dropped=corrupt)


def import_cache(tarball: str | os.PathLike,
                 cache: str | None = None) -> list[ImportReport]:
    """Merge a cache tarball into the local stores, content-addressed.

    Only ``<schema dir>/store.db`` members of the current stores are
    read (anything else — paths escaping the root included — is
    ignored, never extracted).  Rows whose checksum fails are dropped;
    keys the local store already holds are skipped, so an import adds
    knowledge but never clobbers it (a conflicting value keeps the
    local row — with content-addressed keys that is a corruption
    signal, not a merge policy).  Other processes see the merge as
    soon as its one transaction commits.
    """
    root = _root(cache, "import")
    live = store_dirs()
    reports = []
    with tarfile.open(tarball, "r:*") as archive, \
            tempfile.TemporaryDirectory() as scratch:
        for member in archive.getmembers():
            parts = pathlib.PurePosixPath(member.name).parts
            if not member.isfile() or len(parts) != 2 \
                    or parts[0] not in live or parts[1] != DB_NAME:
                continue
            incoming = pathlib.Path(scratch) / parts[0]
            with archive.extractfile(member) as source, \
                    open(incoming, "wb") as copy:
                shutil.copyfileobj(source, copy)
            reports.append(_merge(incoming, root / parts[0]))
    return reports
