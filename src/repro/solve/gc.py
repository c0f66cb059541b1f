"""Offline maintenance of the persistent stores.

Each store is one SQLite database, ``<root>/<schema dir>/store.db``,
for the solve store (``v<N>/``), the classification store
(``classify-v<N>/``) and the cell store (``cells-v<N>/``):

``repro cache gc`` deletes the directories of other schema versions
(their entries can never be read again), drops rows whose checksum
fails, and ``VACUUM``s each live database.

SQLite commits are atomic, so none of this needs an fsync knob, and a
concurrent run only waits on the maintenance transaction.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sqlite3
from dataclasses import dataclass

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
    """Row count and the (kind, key) of every row failing its checksum
    (taken, like the stores take it, over the hex key)."""
    rows = 0
    corrupt = []
    for kind, key, crc, value in connection.execute(
            "SELECT kind, key, crc, value FROM entries"):
        rows += 1
        if not isinstance(key, bytes) or not isinstance(value, bytes) \
                or checksum(kind, key.hex(), value) != crc:
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
