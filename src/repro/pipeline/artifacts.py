"""Typed, content-addressed stage artifacts of the estimation pipeline.

The paper's flow — program → CFG → cache classification → FMM → ILP
solve → pWCET distribution — runs as a DAG of *stages*; each stage's
output is one of the frozen dataclasses below.  Every artifact carries
``key``: the digest its stage's persistent store already uses (the CFG
digest for :class:`CfgArtifact`, a
:func:`repro.analysis.store.classification_key` for
:class:`ClassificationArtifact`, digests over the solve store's
:func:`repro.solve.store.store_context` for the solve-side stages), so
an artifact is *identified* the same way it is *persisted* — the
stores are read/write-through layers at the artifact boundary, not a
separate caching concern.

Artifacts are plain picklable data: a pool stage computes one in a
worker process and ships it back; the scheduler hands it to dependent
stages verbatim.  Stages that run in-process may omit bulky payloads
(``ClassificationArtifact.tables is None`` means the tables stay
resident in the producing analysis) — the key and counters always
travel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def _digest(*parts: object) -> str:
    """SHA-256 over a canonical JSON encoding of ``parts``."""
    payload = json.dumps(list(parts), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Schema of persisted pWCET cells (:mod:`repro.pipeline.cellstore`).
#: Folded into every :meth:`DistributionArtifact.derive_key`, so
#: bumping it invalidates every
#: stored cell without touching the solve or classification stores.
#: v2: sparse (width, support, values) pmf encoding — wide suite
#: distributions are mostly zero, and the dense float list dominated
#: warm-decode and write-through time.
CELL_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class StageArtifact:
    """Base of every stage output: the stage's content-address."""

    #: Digest key of this artifact, in the key family of the stage's
    #: persistent store (see module docstring).
    key: str


@dataclass(frozen=True)
class CfgArtifact(StageArtifact):
    """Stage 1: a compiled program's control-flow graph.

    ``key`` is :meth:`repro.cfg.graph.CFG.digest` — the prefix every
    downstream store key embeds.
    """

    name: str


@dataclass(frozen=True)
class ClassificationArtifact(StageArtifact):
    """Stage 2: CHMC tables (and SRB hit set) of one (CFG, geometry).

    ``key`` is the nominal-associativity
    :func:`~repro.analysis.store.classification_key`;
    ``table_keys`` maps every carried associativity to its own store
    key.  ``tables`` holds the store-encoded tables
    (:func:`~repro.analysis.store.encode_table` form) when the
    artifact crosses a process boundary, or ``None`` when they stay
    resident in the producing :class:`~repro.analysis.CacheAnalysis`.
    """

    cfg: CfgArtifact
    table_keys: dict[int, str] = field(repr=False)
    tables: dict[int, object] | None = field(repr=False)
    #: Sorted reference keys guaranteed to hit the SRB (``None`` when
    #: no requested mechanism consults the buffer).
    srb_hits: tuple | None = field(repr=False)
    #: :class:`~repro.analysis.classify.AnalysisStats` counters of the
    #: stage run that produced this artifact.
    stats: dict[str, float] = field(repr=False)
    #: In-process hand-off: the producing
    #: :class:`~repro.analysis.CacheAnalysis` itself, set only when
    #: producer and consumer share a process (inline stages) so the
    #: consumer reuses the object instead of decoding ``tables``.
    #: Always ``None`` on artifacts that cross a process boundary.
    analysis: object | None = field(default=None, repr=False,
                                    compare=False)


@dataclass(frozen=True)
class SolveArtifact(StageArtifact):
    """Stage 3a: the fault-free IPET WCET of one estimation context.

    ``key`` digests the solve store's context string plus the kind —
    the same inputs :func:`repro.solve.store.solve_key` folds into the
    persisted solution-artefact entry.
    """

    wcet_cycles: int

    @staticmethod
    def derive_key(store_context: str) -> str:
        return _digest("wcet", store_context)


@dataclass(frozen=True)
class FmmArtifact(StageArtifact):
    """Stage 3b: one mechanism's Fault Miss Map.

    ``key`` digests the solve store context plus the mechanism name —
    the FMM's cells are persisted individually under per-objective
    solve keys sharing exactly that context.
    """

    mechanism: str
    fmm: object = field(repr=False)  # :class:`repro.fmm.FaultMissMap`

    @staticmethod
    def derive_key(store_context: str, mechanism: str) -> str:
        return _digest("fmm", store_context, mechanism)


@dataclass(frozen=True)
class DistributionArtifact(StageArtifact):
    """Stage 4: the whole-cache fault penalty distribution (in misses).

    ``key`` extends the FMM key with the fault probability and the
    cell schema version — the digest over CFG digest × geometry ×
    mechanism × pfail × schema that also addresses the persisted
    (mechanism, pfail) cell in the
    :class:`~repro.pipeline.cellstore.CellStore`.
    """

    mechanism: str
    pfail: float
    distribution: object = field(repr=False)

    @staticmethod
    def derive_key(store_context: str, mechanism: str,
                   pfail: float) -> str:
        return _digest("distribution", store_context, mechanism, pfail,
                       CELL_SCHEMA_VERSION)
