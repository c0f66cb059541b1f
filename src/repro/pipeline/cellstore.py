"""Persistent, content-addressed store of finished estimation cells.

The third disk-backed store of the pipeline, completing the stage
coverage: the solve store persists ILP optima, the classification
store persists CHMC tables, and this one persists whole *(mechanism,
pfail)* cells — the rows of the pipeline's cells tasks.  Keys are the
:func:`cell_key` digest over CFG digest × geometry × timing ×
mechanism × pfail × solver mode × :data:`CELL_SCHEMA_VERSION`, so a
persisted cell is addressed exactly like the row that would recompute
it — the cells tasks' plan-pass probes look every row up by content
address before any worker starts.

A row holds what its readers use: the fault-free WCET, the FMM rows,
the exceedance correction and the pWCET at the probability the
writing run asked for (``null`` where the mechanism's analysis cannot
certify that level), as canonical JSON that the shared store
deflates like every other row (~120 bytes, small enough for SQLite to
keep on the row's own page; a cold default sweep writes 0.25 MB of
cells).  No pmf is stored: it is a pure function of (FMM,
mechanism, fault model), and a decoded
:class:`~repro.pwcet.estimator.PWCETEstimate` recomputes it from the
FMM on first use, bit-identically — as it does the pWCET of a read at
a probability the row does not hold.

Storage is the shared :class:`~repro.solve.store.SqliteStore` under
``cells-v<N>`` next to ``v<N>`` and ``classify-v<N>`` (same
``REPRO_CACHE`` / ``--cache`` knob; corrupt, malformed or foreign
entries degrade to recomputation, and ``repro cache gc`` deletes the
directories of older schemas).
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import ConfigurationError
from repro.faults import FaultProbabilityModel
from repro.fmm import FaultMissMap
from repro.pwcet.estimator import PWCETEstimate
from repro.solve.store import SqliteStore, json_bytes

#: Schema of persisted pWCET cells.  Folded into every
#: :func:`cell_key`, so bumping it invalidates every stored cell
#: without touching the solve or classification stores.
#: v2: sparse (width, support, values) pmf encoding.
#: v3: compact binary cell encoding in the SQLite store.
#: v4: no pmf — the FMM rows and the pWCET at the run's probability.
#: v5: the solver mode (exact or ``--relaxed``) is part of the key.
#: v6: plain JSON rows; the shared store deflates them.
CELL_SCHEMA_VERSION = 6


def cell_key(store_context: str, mechanism: str, pfail: float,
             relaxed: bool) -> str:
    """Content address of one (mechanism, pfail) cell.

    SHA-256 over the canonical JSON of the estimation context (see
    :func:`~repro.solve.store.store_context`), the mechanism, the
    fault probability, the solver mode (a relaxed run's looser FMM
    rows must never serve an exact run) and
    :data:`CELL_SCHEMA_VERSION`.  The encoding is frozen: every cell
    ever written stays addressable.
    """
    payload = json.dumps(["distribution", store_context, mechanism, pfail,
                          bool(relaxed), CELL_SCHEMA_VERSION],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_cell(estimate: PWCETEstimate) -> bytes:
    """The stored bytes of one finished estimation cell.

    ``estimate`` is reduced to the run's probability (see
    :meth:`~repro.pwcet.estimator.PWCETEstimate.reduced`).  The row is
    the canonical JSON of the mechanism, WCET, exceedance correction,
    FMM rows and the (probability, pWCET) pair it knows, both ``null``
    when it knows none (the store deflates it: FMM columns repeat a
    handful of values); floats are written with ``repr`` precision,
    so they round-trip exactly.
    """
    probability, pwcet = estimate.known_pwcet or (None, None)
    return json_bytes({
        "mechanism": estimate.mechanism_name,
        "wcet": estimate.wcet_fault_free,
        "correction": float(estimate.exceedance_correction),
        "fmm": estimate.fmm.rows,
        "probability": probability,
        "pwcet": pwcet,
    })


def decode_cell(value: object, *, name: str, mechanism: str,
                config, pfail: float) -> PWCETEstimate | None:
    """Inverse of :func:`encode_cell`; ``None`` on any malformation.

    ``None`` degrades to recomputation, exactly like a corrupt store
    row — a truncated, bit-rotted or foreign entry (an older schema's
    binary row included) can never become a wrong estimate.  The
    caller supplies the estimation context (name, mechanism, geometry,
    timing, pfail) because the key already binds it; the embedded
    mechanism is cross-checked as one more guard, and the FMM must fit
    the geometry.
    """
    try:
        row = json.loads(value)
        if row["mechanism"] != mechanism:
            return None
        fmm = FaultMissMap(
            geometry=config.geometry,
            rows=tuple(tuple(_integer(cell) for cell in cells)
                       for cells in row["fmm"]),
            mechanism_name=mechanism)
        return PWCETEstimate(
            program_name=name,
            mechanism_name=mechanism,
            wcet_fault_free=_integer(row["wcet"]),
            timing=config.timing,
            fmm=fmm,
            fault_model=FaultProbabilityModel(geometry=config.geometry,
                                              pfail=pfail),
            exceedance_correction=float(row["correction"]),
            known_pwcet=None if row["pwcet"] is None else
            (float(row["probability"]), _integer(row["pwcet"])))
    except (AttributeError, TypeError, ValueError, KeyError, IndexError,
            ConfigurationError):
        return None


def _integer(value: object) -> int:
    """A stored integer; anything else is a malformed row."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class CellStore(SqliteStore):
    """Disk-backed map of cell keys to encoded estimation cells."""

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"cells-v{CELL_SCHEMA_VERSION}")

    def get(self, key: str) -> bytes | None:
        return self._get("cell", key)

    def put(self, key: str, value: bytes) -> None:
        self._put("cell", key, value)
