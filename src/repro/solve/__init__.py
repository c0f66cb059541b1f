"""Batched solve planning for the IPET/FMM linear programs.

The pipeline's dominant cost is the per-(set, fault count) ILP sweep
behind the Fault Miss Map (paper §II-C): hundreds of small maximisation
problems over one shared flow polytope.  This package turns those
solves from eager calls into *planned* work:

``request``
    :class:`SolveRequest` — a declarative, canonically-keyed
    description of one maximisation (objective + relaxation mode).
    Two requests with the same key provably have the same optimum.

``backend``
    Frozen solver inputs.  :class:`ProgramSnapshot` captures a
    :class:`~repro.ipet.ilp.LinearProgram`'s constraint system once
    (CSC matrix, bounds, row bounds) and the backends solve many
    objectives against it without rebuilding anything: a persistent
    HiGHS model (cost vector swapped in place) when scipy's vendored
    ``highspy`` is usable, else a frozen ``scipy.optimize.milp`` path.

``planner``
    :class:`SolvePlanner` — dedupes requests by canonical key,
    prunes FMM columns with monotonicity + a solver-free structural
    pre-screen (loop-bound products; the LP-relaxation screen remains
    opt-in), short-circuits empty objectives, batch-solves unique
    requests across a ``concurrent.futures`` process pool, and keeps
    :class:`SolveStats` counters for benchmarking.

``store``
    :class:`SolveStore` — the disk-backed, content-addressed cache
    that extends the dedup across runs: solved objectives are keyed by
    (schema version, CFG digest, geometry, timing model, canonical
    named objective, solver mode) and persisted as append-only,
    checksummed JSONL shards (``REPRO_CACHE=off|<path>``), so a
    warm rerun of a whole suite performs zero backend ILP solves.

``gc``
    Offline shard compaction (``repro cache gc``): folds the
    append-only shards of both persistent stores (solve +
    classification) into one sorted, checksummed file each.

Lifecycle: callers build requests (cheap, no solver involved), hand
them to a planner bound to the shared program, and read integer bounds
back; identical objectives — within one mechanism's symmetric sets or
across mechanisms sharing degraded classifications — are solved once.
"""

from repro.solve.backend import (ProgramSnapshot, SolverBackend,
                                 available_backends, make_backend)
from repro.solve.gc import CompactionReport, gc_cache
from repro.solve.planner import SolvePlanner, SolveStats
from repro.solve.request import SolveRequest, canonical_objective
from repro.solve.store import (SolveStore, default_cache_dir,
                               solve_context, solve_key, store_context)

__all__ = [
    "CompactionReport",
    "gc_cache",
    "ProgramSnapshot",
    "SolverBackend",
    "available_backends",
    "make_backend",
    "SolvePlanner",
    "SolveStats",
    "SolveRequest",
    "canonical_objective",
    "SolveStore",
    "default_cache_dir",
    "solve_key",
    "solve_context",
    "store_context",
]
