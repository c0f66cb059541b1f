"""Persistent, content-addressed classification store.

The disk-backed sibling of :class:`repro.solve.store.SolveStore`: where
that store persists solved ILP objectives, this one persists the cache
analysis' *classification tables* so a warm run performs zero
abstract-interpretation fixpoints, completing the all-cached pipeline
(warm = zero fixpoints + zero backend ILPs).

Entries are keyed by a SHA-256 digest over everything that determines
a classification:

* the classification schema version (bumped on format change);
* the CFG digest (:meth:`repro.cfg.graph.CFG.digest`);
* the cache geometry ``(sets, ways, block bytes)``;
* the associativity the table was computed at;
* the entry kind (``"chmc"`` tables vs ``"srb"`` hit sets).

Storage is the solve store's substrate
(:class:`~repro.solve.store.SqliteStore`: one checksummed SQLite
database, corrupt rows read as misses and recomputed) under the *same*
root directory (subdirectory ``classify-v<N>`` next to the solve
store's ``v<N>``), so ``REPRO_CACHE`` / ``--cache`` control both
stores with one knob and ``repro cache gc`` maintains both at once.
"""

from __future__ import annotations

import json
import os

from repro.analysis.chmc import (ALWAYS_HIT, ALWAYS_MISS, NOT_CLASSIFIED,
                                 Chmc, Classification)
from repro.solve.store import SqliteStore, json_bytes, json_value

#: Bump on ANY change to the table encoding or the key derivation.
#: v2: SQLite database instead of JSONL shards.
#: v3: the shared store's binary keys and deflated values.
CLASSIFY_SCHEMA_VERSION = 3

#: Integer codes of the scope-less classifications (FIRST_MISS is
#: encoded as the pair ``[1, scope]`` instead).
_CODES = {Chmc.ALWAYS_HIT: 0, Chmc.ALWAYS_MISS: 2, Chmc.NOT_CLASSIFIED: 3}
_SINGLETONS = {0: ALWAYS_HIT, 2: ALWAYS_MISS, 3: NOT_CLASSIFIED}


def classification_key(cfg_digest: str, geometry, assoc: int,
                       kind: str = "chmc") -> str:
    """Content address of one classification table (or SRB hit set)."""
    import hashlib

    payload = json.dumps(
        [CLASSIFY_SCHEMA_VERSION, kind, cfg_digest,
         [geometry.sets, geometry.ways, geometry.block_bytes], assoc],
        separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_table(table: dict[int, tuple[Classification, ...]]) -> dict:
    """JSON-serialisable form of a per-block classification map."""
    blocks = []
    for block_id in sorted(table):
        row = []
        for classification in table[block_id]:
            if classification.chmc is Chmc.FIRST_MISS:
                row.append([1, classification.scope])
            else:
                row.append(_CODES[classification.chmc])
        blocks.append([block_id, row])
    return {"blocks": blocks}


def decode_table(value: object) -> dict[int, tuple[Classification, ...]] | None:
    """Inverse of :func:`encode_table`; ``None`` on any malformation.

    A ``None`` degrades to recomputation — exactly like a corrupt
    store row — so accidental corruption (truncation, bit rot, a
    foreign schema) can never produce a wrong classification.  Like
    the solve store, this is *integrity* checking, not tamper
    proofing: the CRC is not cryptographic, so a hostile writer with
    access to the cache directory could forge a well-formed entry.
    """
    try:
        table: dict[int, tuple[Classification, ...]] = {}
        for block_id, row in value["blocks"]:
            classifications = []
            for item in row:
                if isinstance(item, list):
                    code, scope = item
                    if code != 1:
                        return None
                    classifications.append(
                        Classification(chmc=Chmc.FIRST_MISS, scope=scope))
                else:
                    classifications.append(_SINGLETONS[item])
            table[int(block_id)] = tuple(classifications)
        return table
    except (TypeError, ValueError, KeyError):
        return None


class ClassificationStore(SqliteStore):
    """Disk-backed map of classification keys to JSON documents.

    A recomputed value overwrites an occupant that failed decoding
    (checksum-valid but shape-invalid — e.g. written by a buggy run),
    so the store repairs itself instead of recomputing forever.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"classify-v{CLASSIFY_SCHEMA_VERSION}")

    def get(self, key: str) -> object | None:
        return json_value(self._get("classify", key))

    def put(self, key: str, value: object) -> None:
        self._put("classify", key, json_bytes(value))
