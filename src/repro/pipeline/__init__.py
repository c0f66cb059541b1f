"""The unified estimation pipeline: one DAG scheduler and its stages.

The paper's estimation flow (program → CFG → cache classification →
FMM → ILP solve → pWCET distribution) used to be orchestrated three
different ways — inside the estimator, again in the experiment runner,
and a third time in the sweep service, each with its own worker pool.
This package lays the suite and the sweep out as one flat, schedulable
task graph instead:

``scheduler``
    :class:`PipelineScheduler` — the dependency-DAG executor with one
    shared worker pool that interleaves solve and cells tasks across
    benchmarks and geometries, keeps two tasks in flight per worker
    while the parent only dispatches, and runs an
    incremental-invalidation ``plan()`` pass that satisfies
    content-addressed stages from their persistent stores;
    :class:`PipelineStats` — per-run merged solver + analysis
    counters plus cell/from-store accounting and per-stage timings.
    A stage error aborts the run; a dead worker rebuilds the pool
    and resubmits the in-flight tasks, at most
    ``MAX_POOL_REBUILDS`` times per run.

``stages``
    Pool-safe stage task bodies and the one DAG builder
    (:class:`~repro.pipeline.stages.EstimationDag`) that lays a whole
    (programs × geometries × pfails) grid out on one scheduler; the
    suite (:func:`~repro.pipeline.stages.suite_pipeline`) is its
    1-geometry × 1-pfail case.

``cellstore``
    :class:`~repro.pipeline.cellstore.CellStore` — the persistent,
    content-addressed store of finished (mechanism, pfail) cells the
    plan pass probes, keyed by
    :func:`~repro.pipeline.cellstore.cell_key`.

The suite runner (:mod:`repro.experiments.runner`) and the sweep
service (:mod:`repro.sweep.service`) execute through this scheduler;
outputs are bit-identical at any worker count.  The single-benchmark
estimator (:mod:`repro.pwcet.estimator`) calls the same kernels
directly, in-process, with no scheduler.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PipelineScheduler": ".scheduler",
    "PipelineStats": ".scheduler",
    "SUITE_MECHANISMS": ".stages",
    "EstimationDag": ".stages",
    "cell_stage": ".stages",
    "solve_stage": ".stages",
    "suite_pipeline": ".stages",
})
