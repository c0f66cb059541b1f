"""CHMC classification: the facade combining Must, May and Persistence.

:class:`CacheAnalysis` produces a :class:`ClassificationTable` at any
requested associativity (the fault-aware pipeline needs every value
from ``W`` down to ``0``), with the priority of the paper: always-hit
beats first-miss beats always-miss beats not-classified.

The Must/May verdicts come from the age-vector engine of
:mod:`repro.analysis.vectorized`: one Must and one May fixpoint at the
nominal associativity answer *every* degraded associativity by age
thresholding, and a line-size group of geometries shares one stacked
pair (:func:`~repro.analysis.geometry_batch.grouped_analysis`).  The
dict analyses (:class:`~repro.analysis.must.MustAnalysis` /
:class:`~repro.analysis.may.MayAnalysis`) are the independent oracle
the engine is property-tested against
(``tests/test_analysis_vectorized.py``); nothing selects them at run
time.

Classification tables also persist across runs through the
content-addressed :class:`~repro.analysis.store.ClassificationStore`
(``REPRO_CACHE`` / ``cache=...``): a warm run performs **zero**
fixpoints, mirroring the solve store's zero-backend-ILP property.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.chmc import (ALWAYS_HIT, ALWAYS_MISS, NOT_CLASSIFIED,
                                 Chmc, Classification)
from repro.analysis.persistence import PersistenceAnalysis
from repro.analysis.references import Reference, all_references
from repro.analysis.store import (ClassificationStore, classification_key,
                                  decode_table, encode_table)
from repro.cache import CacheGeometry
from repro.cfg import CFG, LoopForest, find_loops
from repro.errors import AnalysisError


@dataclass
class AnalysisStats:
    """Work counters of one :class:`CacheAnalysis` instance.

    Summed into the run's
    :class:`~repro.pipeline.scheduler.PipelineStats` counters alongside
    the solver counters, so suite/sweep drivers can prove properties
    like "the warm rerun ran zero fixpoints".
    """

    #: Abstract-interpretation fixpoints actually run (Must and May
    #: count separately; the SRB pre-analysis counts one).
    fixpoints_run: int = 0
    #: Tables computed by an engine (cold work).
    tables_built: int = 0
    #: Tables decoded from the persistent classification store.
    classify_store_hits: int = 0
    #: Store lookups that missed (followed by a cold computation).
    classify_store_misses: int = 0
    #: Tables appended to the store after a cold computation.
    classify_store_writes: int = 0
    #: Sibling geometries classified alongside the lead by one stacked
    #: fixpoint pair (a line-size group of one has none).
    classify_batched_rows: int = 0
    #: Stacked line-size groups this analysis belongs to (1 for a
    #: group of several geometries, else 0; sums to the run's count).
    geometry_groups: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class SrbHits:
    """Lazily computed Shared Reliable Buffer hit set of one line size.

    The SRB is a 1-set/1-way cache observing the whole stream (paper
    §III-B2): its Must analysis depends on the geometry only through
    the line size, so one fixpoint serves every geometry of a
    line-size group.  ``references`` is the reference map of any
    geometry of that line size: the engine reads only its memory-block
    stream, so no 1-set map is built.  The fixpoint is counted into
    ``stats`` on first demand.
    """

    def __init__(self, cfg: CFG, block_bytes: int, stats: AnalysisStats,
                 references: dict[int, tuple[Reference, ...]]) -> None:
        self._cfg = cfg
        self._block_bytes = block_bytes
        self._stats = stats
        self._references = references
        self._hits: tuple[tuple[int, int], ...] | None = None

    def __call__(self) -> tuple[tuple[int, int], ...]:
        if self._hits is None:
            from repro.analysis.vectorized import AgeVectorEngine
            geometry = CacheGeometry(sets=1, ways=1,
                                     block_bytes=self._block_bytes)
            engine = AgeVectorEngine(self._cfg, (geometry,),
                                     self._references).geometry_slice(0)
            self._hits = tuple(
                reference.key
                for block_id, refs in self._references.items()
                for reference, hit in zip(
                    refs, engine.guaranteed_hits(block_id, 1))
                if hit)
            self._stats.fixpoints_run += engine.fixpoints_run
        return self._hits


class ClassificationTable:
    """Per-reference classifications at one associativity."""

    def __init__(self, assoc: int,
                 table: dict[int, tuple[Classification, ...]],
                 references: dict[int, tuple[Reference, ...]]) -> None:
        self.assoc = assoc
        self._table = table
        self._references = references
        #: The FMM's per-set partition of this table's references,
        #: filled on first use by :mod:`repro.fmm.compute`; it lives
        #: and dies with the table.
        self.set_partition: list | None = None

    def of_block(self, block_id: int) -> tuple[Classification, ...]:
        return self._table[block_id]

    def of(self, block_id: int, index: int) -> Classification:
        return self._table[block_id][index]

    def references(self, block_id: int) -> tuple[Reference, ...]:
        return self._references[block_id]

    def items(self):
        """Yield (reference, classification) over the whole program."""
        for block_id, classifications in self._table.items():
            for reference, classification in zip(
                    self._references[block_id], classifications):
                yield reference, classification

    def count_by_chmc(self) -> dict[str, int]:
        """Histogram of classifications (for reports and tests)."""
        histogram: dict[str, int] = {}
        for _reference, classification in self.items():
            key = classification.chmc.value
            histogram[key] = histogram.get(key, 0) + 1
        return histogram


class CacheAnalysis:
    """Runs and memoises the cache analyses of one (CFG, geometry) pair.

    ``cache`` selects the persistent classification store (same
    convention as the solve cache: ``None`` defers to
    ``REPRO_CACHE``, ``"off"`` disables, anything else is a
    directory).

    :func:`~repro.analysis.geometry_batch.grouped_analysis` injects
    the sharing plumbing of a line-size group through the keyword-only
    hooks: precomputed ``references`` and the ``persistence`` analysis
    over them (both shared by the group's geometries of one set
    count), a shared ``stats`` sink, a ``vector_engine`` facade (one
    geometry's slice of the group's engine) and an ``srb_supplier``
    computing the group's single SRB hit set.  Left at ``None``, every
    hook falls back to a group of one.  The analysis owns what it
    builds; nothing outlives it in a module-level memo.
    """

    def __init__(self, cfg: CFG, geometry: CacheGeometry,
                 forest: LoopForest | None = None, *,
                 cache: str | None = None,
                 references: dict[int, tuple[Reference, ...]] | None = None,
                 persistence: PersistenceAnalysis | None = None,
                 stats: AnalysisStats | None = None,
                 vector_engine=None,
                 srb_supplier=None) -> None:
        cfg.validate()
        self._cfg = cfg
        self._geometry = geometry
        self._forest = forest if forest is not None else find_loops(cfg)
        self._references = references if references is not None \
            else all_references(cfg, geometry)
        #: Counts conflicts on its first query only: a warm run decodes
        #: every table from the store and never asks.
        self._persistence = persistence if persistence is not None \
            else PersistenceAnalysis(cfg, self._references, self._forest)
        self._tables: dict[int, ClassificationTable] = {}
        self.stats = stats if stats is not None else AnalysisStats()
        self._vector = vector_engine
        self._srb_supplier = srb_supplier if srb_supplier is not None \
            else SrbHits(cfg, geometry.block_bytes, self.stats,
                         self._references)
        self._store = ClassificationStore.resolve(cache)
        self._digest: str | None = None
        self._srb_hits: frozenset[tuple[int, int]] | None = None

    @property
    def cfg(self) -> CFG:
        return self._cfg

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    @property
    def forest(self) -> LoopForest:
        return self._forest

    @property
    def references(self) -> dict[int, tuple[Reference, ...]]:
        """Block id → references at this geometry (shared; immutable)."""
        return self._references

    @property
    def persistence(self) -> PersistenceAnalysis:
        return self._persistence

    @property
    def store(self) -> ClassificationStore | None:
        """The persistent classification store (``None`` if disabled)."""
        return self._store

    def classification(self, assoc: int | None = None) -> ClassificationTable:
        """Classification table at ``assoc`` working ways per set.

        ``assoc=None`` means the nominal (fault-free) associativity.
        By LRU set independence, the entry of a reference to set ``s``
        in the table for ``assoc = W - f`` is its classification when
        set ``s`` has ``f`` faulty ways — regardless of other sets.
        """
        if assoc is None:
            assoc = self._geometry.ways
        if assoc < 0 or assoc > self._geometry.ways:
            raise AnalysisError(
                f"associativity {assoc} out of range "
                f"[0, {self._geometry.ways}]")
        if assoc not in self._tables:
            table = self._from_store(assoc)
            if table is None:
                table = self._classify(assoc)
                self._to_store(assoc, table)
            self._tables[assoc] = table
        return self._tables[assoc]

    def srb_always_hits(self) -> frozenset[tuple[int, int]]:
        """Reference keys guaranteed to hit the Shared Reliable Buffer.

        The SRB behaves as a 1-set/1-way cache observing the whole
        stream (paper §III-B2); its Must analysis rides the same
        engine and persistent store as the main tables, so warm SRB
        estimations also run zero fixpoints.
        """
        if self._srb_hits is not None:
            return self._srb_hits
        key = None
        if self._store is not None:
            # Keyed by the *full* L1 geometry even though the hit set
            # only depends on the line size: every geometry then does
            # the same store traffic whether grid cells run in one
            # process or fan out per geometry, keeping parallel sweep
            # reports byte-identical to sequential ones (at the cost
            # of storing one duplicate hit set per geometry).
            key = classification_key(self._cfg_digest(), self._geometry, 1,
                                     kind="srb")
            value = self._store.get(key)
            hits = _decode_srb(value)
            if hits is not None:
                self.stats.classify_store_hits += 1
                self._srb_hits = hits
                return hits
            self.stats.classify_store_misses += 1
        # The supplier runs (and accounts) the line size's single SRB
        # fixpoint on first demand; each geometry of a group still does
        # its own store probe above and write-through below.
        self._srb_hits = frozenset(self._srb_supplier())
        if self._store is not None:
            self._store.put(key, {"hits": sorted(self._srb_hits)})
            self.stats.classify_store_writes += 1
        return self._srb_hits

    # -- persistence ---------------------------------------------------
    def _cfg_digest(self) -> str:
        if self._digest is None:
            self._digest = self._cfg.digest()
        return self._digest

    def _from_store(self, assoc: int) -> ClassificationTable | None:
        if self._store is None:
            return None
        key = classification_key(self._cfg_digest(), self._geometry, assoc)
        value = self._store.get(key)
        if value is not None:
            table = decode_table(value)
            # Malformed or mismatched entries degrade to recomputation.
            if table is not None and set(table) == set(self._references) \
                    and all(len(table[block_id]) == len(refs)
                            for block_id, refs in self._references.items()):
                self.stats.classify_store_hits += 1
                return ClassificationTable(assoc, table, self._references)
        self.stats.classify_store_misses += 1
        return None

    def _to_store(self, assoc: int, table: ClassificationTable) -> None:
        if self._store is None:
            return
        key = classification_key(self._cfg_digest(), self._geometry, assoc)
        self._store.put(key, encode_table(table._table))
        self.stats.classify_store_writes += 1

    # -- cold computation ----------------------------------------------
    def _classify(self, assoc: int) -> ClassificationTable:
        self.stats.tables_built += 1
        if assoc == 0:
            table = {
                block_id: tuple(ALWAYS_MISS for _ in references)
                for block_id, references in self._references.items()
            }
            return ClassificationTable(assoc, table, self._references)
        engine = self._age_engine()
        table: dict[int, tuple[Classification, ...]] = {}
        persistence = self.persistence
        #: scope -> the (immutable) first-miss classification carrying
        #: it — one object per scope instead of one per reference.
        first_miss: dict[int, Classification] = {}
        for block_id, references in self._references.items():
            # numpy verdict vectors: iterate plain Python bools.
            hits = engine.guaranteed_hits(block_id, assoc).tolist()
            cached = engine.possibly_cached(block_id, assoc).tolist()
            classifications = []
            #: set index -> persistence scope.  Within one CFG block
            #: the scope depends on the reference only through its set
            #: (same loop chain), and consecutive fetches share lines
            #: — so this collapses most scope queries.
            scopes: dict[int, int | None] = {}
            for reference, hit, may_hit in zip(references, hits, cached):
                if hit:
                    classifications.append(ALWAYS_HIT)
                    continue
                set_index = reference.set_index
                if set_index in scopes:
                    scope = scopes[set_index]
                else:
                    scope = scopes[set_index] = persistence.scope_of(
                        reference, assoc)
                if scope is not None:
                    classification = first_miss.get(scope)
                    if classification is None:
                        classification = first_miss[scope] = Classification(
                            chmc=Chmc.FIRST_MISS, scope=scope)
                    classifications.append(classification)
                elif not may_hit:
                    classifications.append(ALWAYS_MISS)
                else:
                    classifications.append(NOT_CLASSIFIED)
            table[block_id] = tuple(classifications)
        return ClassificationTable(assoc, table, self._references)

    def _age_engine(self):
        """This geometry's slice of the age engine, fixpoints run.

        The engine runs its two fixpoints on first use only; every
        associativity after that is pure array thresholding.
        """
        if self._vector is None:
            from repro.analysis.vectorized import AgeVectorEngine
            self._vector = AgeVectorEngine(
                self._cfg, (self._geometry,),
                self._references).geometry_slice(0)
        engine = self._vector
        before = engine.fixpoints_run
        # Force both fixpoints now so the counter reflects this table.
        engine.must_ages()
        engine.may_ages()
        self.stats.fixpoints_run += engine.fixpoints_run - before
        return engine


def _decode_srb(value: object) -> frozenset[tuple[int, int]] | None:
    if value is None:
        return None
    try:
        return frozenset((int(block_id), int(index))
                         for block_id, index in value["hits"])
    except (TypeError, ValueError, KeyError):
        return None
