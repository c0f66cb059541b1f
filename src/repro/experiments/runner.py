"""Suite execution for the experiment drivers.

All figure generators need the same per-benchmark artefacts (fault-free
WCET, the three pWCET estimates).  :func:`run_suite` computes them
through the unified pipeline (:mod:`repro.pipeline`): every benchmark
expands into a solve task (classification, then the ILPs), a cells
task and an inline result sink, and ``config.workers > 1`` runs the
whole suite's DAG on one shared process pool — cells tasks of early
benchmarks overlap the solve tasks of later ones, with no phase
barrier and no private pool.  Results are bit-identical to the
sequential path.

Nothing memoises results in-process: every call runs its DAG, and
reuse across calls comes only from the persistent stores (a warm run
serves every cell row from the cell store).  Work counts live only in
the run's :class:`~repro.pipeline.scheduler.PipelineStats`, so a
caller that passes its own to ``run_suite`` gets exactly that
invocation's counters.  Results carry no counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.scheduler import PipelineScheduler, PipelineStats
from repro.pipeline.stages import SUITE_MECHANISMS, EstimationDag
from repro.pwcet import EstimatorConfig, PWCETEstimate
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.suite import EVALUATED_BENCHMARKS, load


@dataclass(frozen=True)
class BenchmarkResult:
    """The paper-facing numbers of one benchmark run."""

    name: str
    wcet_fault_free: int
    estimates: dict[str, PWCETEstimate]  # keyed by mechanism name
    target_probability: float

    def pwcet(self, mechanism: str) -> int:
        return self.estimates[mechanism].pwcet(self.target_probability)

    def normalized(self, mechanism: str) -> float:
        """pWCET normalised to the no-protection pWCET (Figure 4)."""
        return self.pwcet(mechanism) / self.pwcet("none")

    @property
    def normalized_fault_free(self) -> float:
        return self.wcet_fault_free / self.pwcet("none")

    def gain(self, mechanism: str) -> float:
        """Relative pWCET reduction vs. no protection (in [0, 1])."""
        return 1.0 - self.normalized(mechanism)


def run_suite(config: EstimatorConfig | None = None, *,
              target_probability: float = TARGET_EXCEEDANCE,
              benchmarks: tuple[str, ...] = EVALUATED_BENCHMARKS,
              mechanisms: tuple[str, ...] = SUITE_MECHANISMS,
              programs: dict | None = None,
              pipeline_stats: PipelineStats | None = None
              ) -> list[BenchmarkResult]:
    """Run the suite DAG (Figure 4's input data), one result per name.

    Repeated names run once, in first-seen order.  ``programs`` maps
    names to CFGs to run instead of the suite's ``benchmarks`` (the
    :class:`~repro.pwcet.PWCETEstimator` facade passes one), and every
    result estimates each of ``mechanisms``.  ``config.workers``
    > 1 executes the DAG on a shared process pool: solve and cells
    stages of different benchmarks interleave freely (only each
    benchmark's own stage dependencies are enforced), so outputs match
    the sequential path exactly while no worker idles on another
    benchmark's fixpoints.  ``pipeline_stats`` receives the counters
    of exactly this invocation.  Rows already in the persistent cell
    store are served without running anything upstream of them (see
    :class:`~repro.pipeline.stages.EstimationDag`).

    A stage error (say, a :class:`~repro.errors.SolverError`) aborts
    the run and propagates.  A dead pool worker is recovered by the
    scheduler (``pipeline_stats.failure_report`` counts the rebuilds).
    """
    if config is None:
        config = EstimatorConfig()
    if pipeline_stats is None:
        pipeline_stats = PipelineStats()
    if programs is None:
        programs = {name: load(name).cfg for name in benchmarks}
    scheduler = PipelineScheduler(workers=config.workers)
    # The DAG's 1-geometry x 1-pfail case, plus one inline
    # ``result:{bench}`` sink per benchmark.
    dag = EstimationDag(scheduler, programs, (config.geometry,),
                        (config.pfail,), config,
                        probability=target_probability,
                        stats=pipeline_stats, mechanisms=mechanisms)

    def result(name, key, cells):
        rows = dag.rows(key, cells)
        estimates = {mechanism: rows[(mechanism, config.pfail)]
                     for mechanism in mechanisms}
        return BenchmarkResult(
            name=name,
            wcet_fault_free=next(iter(estimates.values())).wcet_fault_free,
            estimates=estimates,
            target_probability=target_probability)

    result_keys = []
    for name in programs:
        key = dag.cells_key(name, config.geometry)
        result_keys.append(scheduler.add(
            f"result:{name}",
            lambda cells, name=name, key=key: result(name, key, cells),
            deps=(key,), stage="result"))
    results = scheduler.run(
        stats=pipeline_stats,
        on_task=lambda key, value, *_: dag.record(key, value))
    return [results[key] for key in result_keys]
