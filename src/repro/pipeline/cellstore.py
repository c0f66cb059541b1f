"""Persistent, content-addressed store of finished estimation cells.

The third disk-backed store of the pipeline, completing the stage
coverage: the solve store persists ILP optima, the classification
store persists CHMC tables, and this one persists whole *(mechanism,
pfail)* cells — the rows of the pipeline's cells tasks.  Keys are the
:func:`cell_key` digest over CFG digest × geometry × timing ×
mechanism × pfail × :data:`CELL_SCHEMA_VERSION`, so a persisted cell
is addressed exactly like the row that would recompute it — the cells
tasks' plan-pass probes look every row up by content address before
any worker starts.

Entries hold everything a :class:`~repro.pwcet.estimator.PWCETEstimate`
needs (fault-free WCET, exact penalty pmf, exceedance correction, FMM
rows), so a warm run reconstructs estimates without touching the
solver, the analysis, or even the other two stores.  Values round-trip
exactly: the pmf's sparse support is stored as raw IEEE-754 and int64
bytes (see :func:`encode_cell`), so a decoded cell is bit-for-bit
indistinguishable from a computed one.

Storage is the shared :class:`~repro.solve.store.SqliteStore` under
``cells-v<N>`` next to ``v<N>`` and ``classify-v<N>`` (same
``REPRO_CACHE`` / ``--cache`` knob; corrupt or malformed entries
degrade to recomputation).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np

from repro.errors import ConfigurationError, DistributionError
from repro.fmm import FaultMissMap
from repro.pwcet.distribution import DiscreteDistribution
from repro.pwcet.estimator import PWCETEstimate
from repro.solve.store import SqliteStore, json_bytes

#: Schema of persisted pWCET cells.  Folded into every
#: :func:`cell_key`, so bumping it invalidates every stored cell
#: without touching the solve or classification stores.
#: v2: sparse (width, support, values) pmf encoding — wide suite
#: distributions are mostly zero, and the dense float list dominated
#: warm-decode and write-through time.
#: v3: compact binary cell encoding in the SQLite store.
CELL_SCHEMA_VERSION = 3


def cell_key(store_context: str, mechanism: str, pfail: float) -> str:
    """Content address of one (mechanism, pfail) cell.

    SHA-256 over the canonical JSON of the estimation context (see
    :func:`~repro.solve.store.store_context`), the mechanism, the
    fault probability and :data:`CELL_SCHEMA_VERSION`.  The encoding
    is frozen: every cell ever written stays addressable.
    """
    payload = json.dumps(["distribution", store_context, mechanism, pfail,
                          CELL_SCHEMA_VERSION],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_cell(estimate: PWCETEstimate) -> bytes:
    """The stored bytes of one finished estimation cell.

    A JSON header line (names, WCET, pmf width and support size,
    exceedance correction, FMM rows), then the pmf's sparse support:
    its probabilities as raw little-endian ``float64``, then a zlib
    stream of the gaps between consecutive non-zero indices as
    little-endian ``int64``.  Suite distributions reach hundreds of
    thousands of grid points; the gaps are nearly all 1 and compress
    to almost nothing, while the probabilities barely compress at all
    and are left raw.  No float ever goes through text, so the decoded
    pmf is bit-identical by construction.
    """
    pmf = estimate.penalty_misses.pmf
    support = np.flatnonzero(pmf)
    header = json_bytes({
        "program": estimate.program_name,
        "mechanism": estimate.mechanism_name,
        "wcet": estimate.wcet_fault_free,
        "width": len(pmf),
        "points": int(support.size),
        "correction": float(estimate.exceedance_correction),
        "fmm": [list(row) for row in estimate.fmm.rows],
        "fmm_mechanism": estimate.fmm.mechanism_name,
    })
    gaps = np.diff(support, prepend=0).astype("<i8")
    return b"".join((header, b"\n", pmf[support].astype("<f8").tobytes(),
                     zlib.compress(gaps.tobytes(), 1)))


def decode_cell(value: object, *, name: str, mechanism: str,
                config, pfail: float) -> PWCETEstimate | None:
    """Inverse of :func:`encode_cell`; ``None`` on any malformation.

    ``None`` degrades to recomputation, exactly like a corrupt store
    row — a truncated, bit-rotted or foreign entry can never become a
    wrong estimate.  The caller supplies the estimation context
    (name, mechanism, geometry, timing) because the key already binds
    it; the embedded names are cross-checked as one more guard.
    """
    try:
        head, separator, packed = value.partition(b"\n")
        header = json.loads(head)
        if not separator or header["mechanism"] != mechanism:
            return None
        width = int(header["width"])
        points = int(header["points"])
        gaps = zlib.decompress(packed[8 * points:])
        if width < 1 or points < 0 or len(gaps) != 8 * points:
            return None
        weights = np.frombuffer(packed, dtype="<f8", count=points)
        support = np.cumsum(np.frombuffer(gaps, dtype="<i8"))
        if points and (support[0] < 0 or support[-1] >= width
                       or np.any(np.diff(support) <= 0)):
            return None
        pmf = np.zeros(width)
        pmf[support] = weights
        fmm = FaultMissMap(
            geometry=config.geometry,
            rows=tuple(tuple(int(cell) for cell in row)
                       for row in header["fmm"]),
            mechanism_name=str(header["fmm_mechanism"]))
        return PWCETEstimate(
            program_name=name,
            mechanism_name=mechanism,
            wcet_fault_free=int(header["wcet"]),
            penalty_misses=DiscreteDistribution(pmf, normalized=False),
            timing=config.timing,
            fmm=fmm,
            exceedance_correction=float(header["correction"]))
    except (AttributeError, TypeError, ValueError, KeyError, IndexError,
            zlib.error, ConfigurationError, DistributionError):
        return None


class CellStore(SqliteStore):
    """Disk-backed map of cell keys to encoded estimation cells."""

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"cells-v{CELL_SCHEMA_VERSION}")

    def get(self, key: str) -> bytes | None:
        return self._get("cell", key)

    def put(self, key: str, value: bytes) -> None:
        self._put("cell", key, value)
