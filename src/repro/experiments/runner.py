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

Work counts live only in the run's
:class:`~repro.pipeline.scheduler.PipelineStats`: a caller that wants
the counters of one invocation passes its own to ``run_suite`` —
re-entering ``run_suite`` can neither zero nor double-count a previous
run's numbers (see ``tests/test_pipeline_suite.py``).  Results carry
no counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

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
              pipeline_stats: PipelineStats | None = None
              ) -> list[BenchmarkResult]:
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

    A stage error (say, a :class:`~repro.errors.SolverError`)
    aborts the run and propagates; nothing of the failed run is
    memoised.  A dead pool worker is recovered by the scheduler
    (``pipeline_stats.failure_report`` counts the rebuilds).
    """
    if config is None:
        config = EstimatorConfig()
    if workers is None:
        workers = config.workers
    pending = [name for name in benchmarks
               if (name, config, target_probability) not in _CACHE]
    if pending:
        computed = suite_pipeline({name: load(name).cfg
                                   for name in pending}, config,
                                  target_probability,
                                  workers=workers, stats=pipeline_stats)
        for name in pending:
            _CACHE[(name, config, target_probability)] = computed[name]
    return [run_benchmark(name, config,
                          target_probability=target_probability)
            for name in benchmarks]


def reset_cache() -> None:
    """Forget memoised results (fresh-invocation semantics for tests,
    benchmarks and warm/cold comparisons); the next ``run_suite``
    recomputes or reads the persistent stores."""
    _CACHE.clear()


@contextmanager
def fresh_results():
    """Scope with an empty result memo; the outer memo is restored.

    Inside the scope every ``run_benchmark`` computes (or reads the
    persistent store) instead of reusing results memoised by earlier
    drivers — so a ``PipelineStats`` passed to ``run_suite`` inside
    it counts every benchmark's work.  On exit the outer memo returns,
    updated with the scope's results, so surrounding drivers keep their
    reuse.
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
