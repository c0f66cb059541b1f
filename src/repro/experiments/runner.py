"""Shared benchmark execution and caching for the experiment drivers.

All figure generators need the same per-benchmark artefacts (fault-free
WCET, the three pWCET estimates); this module computes them once per
(benchmark, configuration) and caches in process.  Execution goes
through the unified pipeline (:mod:`repro.pipeline`): every benchmark
expands into a classify task, a fused solve task, a cells task and an
inline result sink, and ``run_suite(workers=N)`` runs the whole
suite's DAG on one shared process pool — solve tasks of early
benchmarks overlap the classification fixpoints of later ones, with
no phase barrier and no private pool.  Results are bit-identical to
the sequential path and land in the same cache.

Stats are scoped per pipeline run: each
:class:`~repro.experiments.runner.BenchmarkResult` snapshots the
counters of the run that computed it, and callers that need the
aggregate of exactly one invocation pass their own
:class:`~repro.pipeline.scheduler.PipelineStats` — re-entering
``run_suite`` can neither zero nor double-count a previous run's
numbers (see ``tests/test_pipeline_suite.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.pipeline.resilience import RetryPolicy, TaskFailure
from repro.pipeline.scheduler import PipelineStats
from repro.pipeline.stages import suite_pipeline
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
    #: Planner + cache-analysis counters of the pipeline run that
    #: produced this result (``None`` for results materialised before
    #: stats plumbing existed).  A snapshot, never live state: the
    #: numbers describe the run that computed the result and stay
    #: valid however often drivers re-enter ``run_suite``.
    solver_stats: dict[str, float] | None = None

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


@dataclass(frozen=True)
class FailedBenchmark:
    """A benchmark a ``strict=False`` suite run could not complete.

    Returned in place of a :class:`BenchmarkResult`: ``failure`` is
    the terminal :class:`~repro.pipeline.resilience.TaskFailure` of
    the benchmark's result task (for cascades, ``failure.root_key``
    names the quarantined stage).  Failed benchmarks are never
    memoised — the next run retries them from scratch.
    """

    name: str
    failure: TaskFailure


_CACHE: dict[tuple[str, EstimatorConfig, float], BenchmarkResult] = {}


def run_benchmark(name: str, config: EstimatorConfig | None = None, *,
                  target_probability: float = TARGET_EXCEEDANCE
                  ) -> BenchmarkResult:
    """Full pipeline for one benchmark (memoised per configuration)."""
    if config is None:
        config = EstimatorConfig()
    key = (name, config, target_probability)
    if key not in _CACHE:
        _CACHE[key] = suite_pipeline({name: load(name).cfg}, config,
                                     target_probability, workers=1)[name]
    return _CACHE[key]


def run_suite(config: EstimatorConfig | None = None, *,
              target_probability: float = TARGET_EXCEEDANCE,
              benchmarks: tuple[str, ...] = EVALUATED_BENCHMARKS,
              workers: int | None = None,
              pipeline_stats: PipelineStats | None = None,
              strict: bool = True,
              retry: RetryPolicy | None = None
              ) -> list[BenchmarkResult | FailedBenchmark]:
    """Run the whole 25-benchmark suite (Figure 4's input data).

    ``workers`` (default: the configuration's ``workers`` field) > 1
    executes the suite DAG on a shared process pool: classification
    and estimation stages of different benchmarks interleave freely
    (only each benchmark's own stage dependencies are enforced), so
    outputs match the sequential path exactly while no worker idles on
    another benchmark's fixpoints.  ``pipeline_stats`` scopes the
    counters of exactly this invocation — benchmarks served from the
    in-process memo contribute nothing to it.  Rows already in the
    persistent cell store are served without running anything
    upstream of them (see :class:`~repro.pipeline.stages
    .EstimationDag`).

    Resilience: transient faults (killed workers, broken pools) are
    retried under ``retry`` (default policy) in both modes.  With
    ``strict=False`` a benchmark whose failure is permanent (or whose
    retries are exhausted) comes back as a :class:`FailedBenchmark`
    while the others complete normally; ``pipeline_stats
    .failure_report`` carries the per-task ledger.
    """
    if config is None:
        config = EstimatorConfig()
    if workers is None:
        workers = config.workers
    pending = [name for name in benchmarks
               if (name, config, target_probability) not in _CACHE]
    failed: dict[str, FailedBenchmark] = {}
    if pending:
        computed = suite_pipeline({name: load(name).cfg
                                   for name in pending}, config,
                                  target_probability,
                                  workers=workers, stats=pipeline_stats,
                                  strict=strict, retry=retry)
        for name in pending:
            value = computed[name]
            if isinstance(value, TaskFailure):
                # Never memoised: the next invocation retries from
                # scratch instead of replaying the failure.
                failed[name] = FailedBenchmark(name=name, failure=value)
            else:
                _CACHE[(name, config, target_probability)] = value
    return [failed[name] if name in failed
            else run_benchmark(name, config,
                               target_probability=target_probability)
            for name in benchmarks]


def reset_cache() -> None:
    """Forget memoised results (fresh-invocation semantics for tests,
    benchmarks and warm/cold comparisons).

    Only the result memo is dropped: per-result ``solver_stats`` are
    immutable snapshots of their own pipeline run, so results already
    handed out keep accurate numbers.
    """
    _CACHE.clear()


@contextmanager
def fresh_results():
    """Scope with an empty result memo; the outer memo is restored.

    Inside the scope every ``run_benchmark`` computes (or reads the
    persistent store) instead of reusing results memoised by earlier
    drivers — so the scope's ``solver_stats`` describe exactly the
    work it performed.  On exit the outer memo returns, updated with
    the scope's results, so surrounding drivers keep their reuse.
    """
    saved = dict(_CACHE)
    _CACHE.clear()
    try:
        yield
    finally:
        produced = dict(_CACHE)
        _CACHE.clear()
        _CACHE.update(saved)
        _CACHE.update(produced)


def solver_totals(results: list[BenchmarkResult]) -> dict[str, float]:
    """Sum the planner counters over a list of results.

    Rate-style entries (``*_rate``) do not sum and are recomputed from
    the totals where meaningful.
    """
    stats = PipelineStats()
    for result in results:
        # FailedBenchmark entries of a partial run carry no counters.
        stats.merge_counters(getattr(result, "solver_stats", None))
    return stats.totals()
