"""Persistent, content-addressed solve cache shared across runs.

The in-process :class:`~repro.solve.planner.SolvePlanner` dedups the
ILP sweep of *one* solve task; this store extends the dedup across
processes, CLI invocations, test sessions and CI runs.  Entries are
keyed by a SHA-256 digest of everything that determines a solve's
outcome:

* the store schema version (bumped on any format or semantics change);
* the flow polytope: the CFG digest (blocks, instruction addresses,
  edges, loop bounds — see :meth:`repro.cfg.graph.CFG.digest`) plus
  the cache line size (see :func:`solve_context`);
* the canonical objective, expressed over *variable names* (not
  indices), so the key is independent of variable creation order —
  the geometry and timing model of a solve already live in its
  objective's coefficients;
* the solver mode (exact ILP vs LP relaxation).

Storage is :class:`SqliteStore`, shared with the classification and
cell stores: one SQLite database (``store.db``) per store, under a
schema-versioned subdirectory of the cache root.  A read is one
indexed ``SELECT`` — a warm run pays for the rows it reads, not for
the size of the cache — and a write is one atomic upsert, so a killed
writer never leaves a partial row and concurrent pool workers only
ever wait on each other's (short) write transactions.  A row is
addressed by the 32 raw bytes of its SHA-256 key and holds its value
raw-deflated (:func:`zlib.compress` at the default level, no header),
plus a CRC-32 of its address and stored bytes: a mismatch, or bytes
that do not inflate, read as a miss, and the recomputation's write
repairs the row.

Control knob: ``REPRO_CACHE`` —

* unset: the default user cache directory
  (``$XDG_CACHE_HOME``/``~/.cache`` ``/repro/solve``);
* ``off`` (or ``0``/``none``): persistent caching disabled;
* any other value: used as the store directory.

``EstimatorConfig(cache=...)`` / ``--cache`` override the environment
per run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import multiprocessing.util
import os
import pathlib
import signal
import sqlite3
import weakref
import zlib
from dataclasses import dataclass

from repro.testing import faultinject

#: Bump on ANY change to the entry format, the key derivation, or the
#: meaning of stored values.  Old entries live under another ``v<N>``
#: subdirectory and are never even opened.
#: v2: keyed by the polytope (:func:`solve_context`) instead of the
#: (CFG digest, geometry, timing) estimation context.
#: v3: one SQLite database instead of JSONL shards.
#: v4: 32-byte binary keys and raw-deflated values.
SCHEMA_VERSION = 4

#: Environment variable controlling the default store location.
CACHE_ENV = "REPRO_CACHE"

#: Values of :data:`CACHE_ENV` that disable persistence entirely.
_OFF_VALUES = frozenset({"off", "0", "none", "disabled"})

#: The database file inside every store's schema directory.
DB_NAME = "store.db"

#: Seconds a writer waits for another process's write transaction.
_BUSY_TIMEOUT_S = 60.0

#: Bytes a checkpointed write-ahead log is truncated back to, so a
#: lingering ``-wal`` file never holds a whole run's writes.
_JOURNAL_SIZE_LIMIT = 4 << 20

#: Window bits of the row codec: raw deflate, no zlib header or
#: trailer (the row's own CRC already guards its bytes).
_WBITS = -15

_TABLE = ("CREATE TABLE IF NOT EXISTS entries ("
          "kind TEXT NOT NULL, key BLOB NOT NULL, crc INTEGER NOT NULL, "
          "value BLOB NOT NULL, PRIMARY KEY (kind, key)) WITHOUT ROWID")

#: Insert, or overwrite a row whose bytes differ (a corrupt row is
#: repaired); an identical row is left alone, so ``rowcount`` counts
#: real writes only.
_UPSERT = ("INSERT INTO entries (kind, key, crc, value) VALUES (?, ?, ?, ?) "
           "ON CONFLICT (kind, key) DO UPDATE SET crc = excluded.crc, "
           "value = excluded.value "
           "WHERE crc IS NOT excluded.crc OR value IS NOT excluded.value")

_SELECT = "SELECT crc, value FROM entries WHERE kind = ? AND key = ?"


def cache_root(override: str | None = None) -> pathlib.Path | None:
    """The cache root selected by ``override`` or ``REPRO_CACHE``.

    ``override`` follows the environment variable's convention
    (``"off"`` disables, anything else is a directory); ``None`` defers
    to the environment, and an unset environment selects the default
    user cache directory.  Returns ``None`` when persistence is off.
    """
    value = override if override is not None else os.environ.get(CACHE_ENV)
    if value is None or not value.strip():
        return default_cache_dir()
    if value.strip().lower() in _OFF_VALUES:
        return None
    return pathlib.Path(value)


def default_cache_dir() -> pathlib.Path:
    """The XDG-style default store location."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "solve"


def solve_key(context: str, named_objective, relaxed: bool,
              kind: str = "value") -> str:
    """Content address of one solve.

    ``named_objective`` is an iterable of ``(variable name, weight)``
    pairs; it is canonicalised (sorted by name) here so callers may
    pass any order.  ``kind`` separates integer optima (``"value"``)
    from full solution vectors (``"solution"``).
    """
    payload = json.dumps(
        [SCHEMA_VERSION, kind, context, sorted(named_objective),
         bool(relaxed)],
        separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def solve_context(cfg_digest: str, block_bytes: int) -> str:
    """The key prefix of every solve against one CFG's flow polytope.

    The polytope (edge counts, loop bounds, first-miss group
    variables) depends on the CFG alone, so one context serves WCET
    and FMM objectives of every geometry and timing model.  The line
    size partitions the keys the way a sweep partitions its solve
    work — one solve node per (benchmark, line size) — so no run ever
    reads a key another node of the same run wrote: cold counters are
    identical with and without the store, at any worker count.
    """
    return json.dumps({"cfg": cfg_digest, "line": block_bytes},
                      sort_keys=True, separators=(",", ":"))


def store_context(cfg_digest: str, geometry, timing) -> str:
    """The (CFG digest, geometry, timing) estimation context.

    The prefix of every finished cell's key
    (:func:`repro.pipeline.cellstore.cell_key`): unlike a single
    solve, a cell depends on the whole geometry and timing model.
    """
    return json.dumps({
        "cfg": cfg_digest,
        "geometry": [geometry.sets, geometry.ways, geometry.block_bytes],
        "timing": [timing.hit_cycles, timing.memory_cycles],
    }, sort_keys=True, separators=(",", ":"))


@dataclass
class StoreStats:
    """Read/write counters of one store handle."""

    hits: int = 0
    misses: int = 0
    #: Rows inserted or repaired (identical rewrites do not count).
    writes: int = 0
    #: Rows read whose checksum did not match (served as misses).
    corrupt_skipped: int = 0


def checksum(kind: str, key: str, value: bytes) -> int:
    """CRC-32 of one row: binds the stored (deflated) value to its
    (kind, hex key) address."""
    return zlib.crc32(value, zlib.crc32(f"{kind}|{key}|".encode("utf-8")))


def open_db(path: str | os.PathLike) -> sqlite3.Connection:
    """A connection to one store database, created if absent.

    Autocommit (every statement is its own transaction), write-ahead
    logging so readers never block the writer, ``synchronous=NORMAL``
    (a commit survives a killed process; a power loss may drop the
    last commits, which are recomputable), and a busy timeout so
    concurrent pool writers queue instead of failing.
    """
    path = pathlib.Path(path)
    if not path.exists():
        _create_db(path)
    connection = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S,
                                 isolation_level=None,
                                 check_same_thread=False)
    try:
        (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
        if mode != "wal":
            connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA journal_size_limit={_JOURNAL_SIZE_LIMIT}")
        connection.execute(_TABLE)
    except sqlite3.Error:
        connection.close()
        raise
    return connection


def _create_db(path: pathlib.Path) -> None:
    """Create an empty WAL-mode store database at ``path``.

    Built under a private name and published by a hard link, so
    concurrent creators race on the link (the loser simply uses the
    winner's file), never on the journal-mode switch — which fails at
    once, without waiting, while another connection uses the file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    connection = sqlite3.connect(tmp)
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute(_TABLE)
    finally:
        connection.close()
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)


def _file_identity(path: pathlib.Path) -> tuple[int, int] | None:
    try:
        status = path.stat()
    except OSError:
        return None
    return status.st_dev, status.st_ino


#: Handles memoised by :meth:`SqliteStore.resolve`, keyed by store
#: class and absolute cache root.
_RESOLVED: dict[tuple[type, str], "SqliteStore"] = {}

#: Stores holding an open connection in this process.  All of them are
#: closed before the process forks — a child must never inherit a live
#: SQLite connection — and when it exits, so the last connection
#: checkpoints and removes the write-ahead log.
_OPEN: weakref.WeakSet = weakref.WeakSet()
#: The pid whose exit hooks are installed.
_HOOKED_PID: int | None = None


def _close_all() -> None:
    """Close every store connection this process opened."""
    for store in list(_OPEN):
        store.close()


def _close_at_exit() -> None:
    """Close every connection, then open and close each resolved store
    whose write-ahead log is still on disk (pool workers that exit
    together can each leave it to the other), so the last close
    checkpoints and removes it."""
    _close_all()
    for store in list(_RESOLVED.values()):
        if os.path.exists(f"{store._db_path}-wal") \
                and store._connect(create=False) is not None:
            store.close()


def _hook_exit() -> None:
    """Close connections at exit, once per process.  A
    :mod:`multiprocessing` finalizer runs both at interpreter exit and
    when a pool worker leaves (workers skip :mod:`atexit`)."""
    global _HOOKED_PID
    if _HOOKED_PID == os.getpid():
        return
    _HOOKED_PID = os.getpid()
    multiprocessing.util.Finalize(None, _close_at_exit, exitpriority=0)


os.register_at_fork(before=_close_all)


class SqliteStore:
    """One schema-versioned SQLite database of checksummed entries.

    The shared substrate of the three persistent stores: rows map
    ``(kind, key)`` to ``(crc, value bytes)``.  Callers speak hex keys
    and raw values; on disk a key is its 32 raw bytes and a value is
    raw-deflated, converted only in :meth:`_select` and
    :meth:`_write`.  :meth:`_get` is one indexed lookup, a checksum
    check and an inflate (a mismatch or a failed inflate is a miss);
    :meth:`_put` is one atomic upsert, or joins the open
    :meth:`batch` transaction.  The connection opens lazily, once per
    process; an unwritable or unreadable cache degrades to an
    in-process memo of this handle's own writes, never to a failure.
    """

    def __init__(self, root: str | os.PathLike, subdir: str) -> None:
        self.root = pathlib.Path(root)
        #: The store's directory under the cache root (perfbench's
        #: tracer reads its name to attribute bytes to each store).
        self._shard_dir = self.root / subdir
        self._db_path = self._shard_dir / DB_NAME
        self._connection: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._identity: tuple[int, int] | None = None
        #: Writes deferred by :meth:`batch`, ``None`` outside one.
        self._pending: dict[tuple[str, str], bytes] | None = None
        #: Writes that could not be persisted, still served in-process.
        self._unsaved: dict[tuple[str, str], bytes] = {}
        self.stats = StoreStats()

    @classmethod
    def resolve(cls, override: str | None = None):
        """The store of this class under the cache root selected by
        ``override`` or the environment (:func:`cache_root`); ``None``
        when persistence is off.

        Handles are memoised per root: the hundreds of estimators of a
        suite or sweep share one connection per store, and the three
        stores live side by side under one root.
        """
        root = cache_root(override)
        if root is None:
            return None
        key = (cls, os.path.abspath(root))
        store = _RESOLVED.get(key)
        if store is None:
            store = _RESOLVED[key] = cls(root)
        _hook_exit()
        return store

    # -- connection lifecycle ------------------------------------------
    def _connect(self, *, create: bool) -> sqlite3.Connection | None:
        if self._connection is not None and self._pid == os.getpid():
            return self._connection
        if not create and not self._db_path.is_file():
            return None
        try:
            self._shard_dir.mkdir(parents=True, exist_ok=True)
            self._connection = open_db(self._db_path)
        except (OSError, sqlite3.Error):
            return None
        self._pid = os.getpid()
        self._identity = _file_identity(self._db_path)
        _OPEN.add(self)
        _hook_exit()
        return self._connection

    def refresh(self) -> None:
        """Drop the connection if the database file was replaced.

        Called whenever the pipeline builds a run's DAG.  Another
        process's write is visible to the next ``SELECT`` anyway; only
        a file swapped underneath the handle (the cache directory
        deleted and recreated) needs a reconnect, which happens lazily.
        """
        if self._connection is not None \
                and self._identity != _file_identity(self._db_path):
            self.close()

    def close(self) -> None:
        """Close the connection; idempotent and safe on instances
        whose ``__init__`` never completed (``__del__`` may run on
        one)."""
        connection = getattr(self, "_connection", None)
        self._connection = None
        _OPEN.discard(self)
        if connection is not None and self._pid == os.getpid():
            try:
                connection.close()
            except sqlite3.Error:
                pass

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    # -- rows ----------------------------------------------------------
    def _get(self, kind: str, key: str) -> bytes | None:
        address = (kind, key)
        value = self._pending.get(address) if self._pending else None
        if value is None:
            value = self._select(kind, key)
        if value is None:
            value = self._unsaved.get(address)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def _select(self, kind: str, key: str) -> bytes | None:
        connection = self._connect(create=False)
        if connection is None:
            return None
        try:
            if faultinject.fire("store", self._shard_dir.name,
                                actions=("read_error",)) is not None:
                raise sqlite3.OperationalError("injected read error")
            row = connection.execute(
                _SELECT, (kind, bytes.fromhex(key))).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        crc, stored = row
        if isinstance(stored, bytes) and checksum(kind, key, stored) == crc:
            try:
                return zlib.decompress(stored, wbits=_WBITS)
            except zlib.error:
                pass
        self.stats.corrupt_skipped += 1
        return None

    def _put(self, kind: str, key: str, value: bytes) -> None:
        if self._pending is not None:
            self._pending[(kind, key)] = value
        else:
            self._write({(kind, key): value})

    @contextlib.contextmanager
    def batch(self):
        """Defer this handle's writes to one transaction at exit.

        A stage's writes then take the database's write lock once
        instead of once per row, so concurrent pool workers rarely wait
        on each other.  Reads see the pending rows; a nested batch
        joins the outer one.
        """
        if self._pending is not None:
            yield self
            return
        self._pending = {}
        try:
            yield self
        finally:
            pending, self._pending = self._pending, None
            if pending:
                self._write(pending)

    def _write(self, values: dict[tuple[str, str], bytes]) -> None:
        """Deflate ``values`` and upsert them in one transaction."""
        rows = []
        for (kind, key), value in values.items():
            stored = zlib.compress(value, wbits=_WBITS)
            rows.append((kind, bytes.fromhex(key),
                         checksum(kind, key, stored), stored))
        connection = self._connect(create=True)
        # A read-only, full or broken cache directory degrades to
        # in-process memoisation; never fail the estimation over
        # persistence.
        if connection is None:
            self._unsaved.update(values)
            return
        # Like ``worker:kill``, only pool workers are ever killed: the
        # driving process dying is a crash, not a recovery.
        kill = multiprocessing.parent_process() is not None \
            and faultinject.fire("store", self._shard_dir.name,
                                 actions=("kill",)) is not None
        try:
            if kill or len(rows) > 1:
                connection.execute("BEGIN IMMEDIATE")
            written = connection.executemany(_UPSERT, rows).rowcount
            if kill:
                # Injected crash inside the open write transaction,
                # exactly what a worker killed mid-write leaves behind.
                os.kill(os.getpid(), signal.SIGKILL)
            if connection.in_transaction:
                connection.execute("COMMIT")
        except sqlite3.Error:
            if connection.in_transaction:
                try:
                    connection.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
            self._unsaved.update(values)
            return
        self.stats.writes += written

    def __len__(self) -> int:
        connection = self._connect(create=False)
        if connection is None:
            return len(self._unsaved)
        (count,) = connection.execute(
            "SELECT COUNT(*) FROM entries").fetchone()
        return count


def json_bytes(value: object) -> bytes:
    """The canonical JSON encoding of one stored document."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def json_value(data: bytes | None) -> object | None:
    """Inverse of :func:`json_bytes`; ``None`` for a miss or bad JSON."""
    if data is None:
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


class SolveStore(SqliteStore):
    """Disk-backed map of solve keys to optima / solution artefacts.

    ``get``/``put`` handle integer optima (the FMM cells and primed
    batches); ``get_artefact``/``put_artefact`` handle JSON documents
    (the WCET's full solution vector).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"v{SCHEMA_VERSION}")

    def get(self, key: str) -> int | None:
        value = json_value(self._get("solve", key))
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        return None

    def get_artefact(self, key: str) -> object | None:
        return json_value(self._get("artefact", key))

    def put(self, key: str, value: int) -> None:
        self._put("solve", key, json_bytes(value))

    def put_artefact(self, key: str, value: object) -> None:
        self._put("artefact", key, json_bytes(value))
