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
    (CSC matrix built with numpy, bounds, row bounds), and
    :class:`~repro.solve.backend.HighsBackend`, the one backend, solves
    many objectives against it without rebuilding anything: a
    persistent HiGHS model, its cost vector swapped in place.  The
    HiGHS bindings are scipy's vendored ``highspy`` extension, loaded
    by file path so no ``scipy.optimize`` package import is paid.

``planner``
    :class:`SolvePlanner` — dedupes requests by canonical key,
    short-circuits empty objectives, keeps FMM rows monotone in the
    fault count, batch-solves unique requests in-process, and keeps
    :class:`SolveStats` counters for benchmarking.

``store``
    :class:`SolveStore` — the disk-backed, content-addressed cache
    that extends the dedup across runs: solved objectives are keyed by
    (schema version, CFG digest, line size, canonical named objective,
    solver mode) and persisted as checksummed rows of one SQLite
    database (``REPRO_CACHE=off|<path>``), so a warm rerun of a whole
    suite performs zero backend ILP solves.

``gc``
    Offline store maintenance (``repro cache gc``): removes
    foreign-schema directories, drops corrupt rows and VACUUMs every
    store.

Lifecycle: callers build requests (cheap, no solver involved), hand
them to a planner bound to the shared program, and read integer bounds
back; identical objectives — within one mechanism's symmetric sets or
across mechanisms sharing degraded classifications — are solved once.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CompactionReport": ".gc",
    "gc_cache": ".gc",
    "ProgramSnapshot": ".backend",
    "SolvePlanner": ".planner",
    "SolveStats": ".planner",
    "SolveRequest": ".request",
    "canonical_objective": ".request",
    "SolveStore": ".store",
    "default_cache_dir": ".store",
    "solve_key": ".store",
    "solve_context": ".store",
    "store_context": ".store",
})
