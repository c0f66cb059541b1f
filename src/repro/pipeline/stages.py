"""Stage functions and the one DAG builder of the estimation pipeline.

:class:`EstimationDag` lays a whole (benchmarks × geometries × pfails ×
mechanisms) grid out as one flat DAG on one
:class:`~repro.pipeline.scheduler.PipelineScheduler`; the suite is its
1-geometry × 1-pfail case.  Per benchmark:

``classify:{bench}:{line}`` — :func:`classify_stage`
    Every classification table (and SRB hit set) the requested
    mechanisms need, for every geometry of one line-size group.  A
    group of several geometries runs ONE stacked Must/May fixpoint
    pair (:func:`~repro.analysis.geometry_batch.grouped_analysis`).
    Tables read and write through the
    :class:`~repro.analysis.store.ClassificationStore`.

``solve:{bench}:{line}`` — :func:`solve_stage`
    Fused to its classify task (same process, right after it, so the
    tables never cross a process boundary).  Builds ONE flow polytope
    (:class:`~repro.ipet.FlowModel`) and one
    :class:`~repro.solve.planner.SolvePlanner` for the benchmark: the
    polytope is geometry-independent, so the fault-free WCET and every
    mechanism's Fault Miss Map at every geometry of the group are
    objectives over it, and duplicate objectives dedup in-process.
    Solves read and write through the
    :class:`~repro.solve.store.SolveStore`.

``cells:{bench}:{geometry}`` — :func:`cell_stage`
    The mechanism and pfail axes of one geometry: one batched
    penalty-convolution pass per mechanism
    (:func:`~repro.pwcet.batch.penalty_distributions`) over the rows
    the :class:`~repro.pipeline.cellstore.CellStore` does not hold yet;
    every row is written through under its own content address.

Each cells task's plan-pass probe looks up every (mechanism, pfail)
row's content address before any task runs: stored rows are decoded
in the parent, a task whose rows are all stored is satisfied (and its
now-undemanded classify and solve tasks are skipped), and a partially
stored task computes only its missing rows.  Sinks — the suite's
per-benchmark results, the sweep's design points — are added by the
drivers and read each task's rows through
:meth:`EstimationDag.rows`.

Counters travel on one channel: every classify/solve/cell task's work
counters are merged into the run's
:class:`~repro.pipeline.scheduler.PipelineStats` as the task completes
(:meth:`EstimationDag.record`), and mean the same thing for a suite
and a sweep.  Each node only ever reads store keys it owns (keys embed
the CFG digest and the line size or geometry), so a run never reads
its own writes: counters and reports are identical at any worker
count, with or without the stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis import CacheAnalysis
from repro.analysis.store import classification_key
from repro.pipeline.artifacts import (CfgArtifact, ClassificationArtifact,
                                      DistributionArtifact)
from repro.pipeline.scheduler import PipelineScheduler, PipelineStats
from repro.reliability import ReliabilityMechanism, mechanism_by_name
from repro.suite import load

#: The paper's three configurations, in presentation order — the
#: mechanism set of every suite/sweep estimation.
SUITE_MECHANISMS = ("none", "srb", "rw")


def required_classifications(mechanisms, ways: int
                             ) -> tuple[tuple[int, ...], bool]:
    """Associativities (in first-demand order) a mechanism set needs.

    Nominal first, then each mechanism's degraded tables ``W-1, W-2,
    …``.  The flag reports whether any mechanism consults the SRB (its
    all-faulty column replaces the associativity-0 table with the
    buffer's hit set).
    """
    assocs: list[int] = [ways]
    seen = {ways}
    needs_srb = False
    for mechanism in mechanisms:
        if not isinstance(mechanism, ReliabilityMechanism):
            mechanism = mechanism_by_name(mechanism)
        counts = mechanism.fault_counts(ways)
        for fault_count in range(1, max(counts) + 1):
            if mechanism.uses_srb and fault_count == ways:
                needs_srb = True
                continue
            assoc = ways - fault_count
            if assoc not in seen:
                seen.add(assoc)
                assocs.append(assoc)
    return tuple(assocs), needs_srb


def classification_artifact(analysis: CacheAnalysis, name: str,
                            mechanisms, *, carry_tables: bool
                            ) -> ClassificationArtifact:
    """Run (or decode) the classification stage on ``analysis``.

    The analysis object is the read/write-through boundary: warm
    tables decode from the persistent store, cold ones run the
    fixpoint engine and are written through.  ``carry_tables`` embeds
    the store-encoded tables in the artifact (for a consumer in
    another process); without it the artifact hands the analysis
    object itself to same-process consumers.
    """
    ways = analysis.geometry.ways
    assocs, needs_srb = required_classifications(mechanisms, ways)
    tables = {} if carry_tables else None
    for assoc in assocs:
        table = analysis.classification(assoc)
        if tables is not None:
            tables[assoc] = table.encoded()
    srb_hits = None
    if needs_srb:
        srb_hits = tuple(sorted(analysis.srb_always_hits()))
    digest = analysis.cfg.digest()
    return ClassificationArtifact(
        key=classification_key(digest, analysis.geometry, ways),
        cfg=CfgArtifact(key=digest, name=name),
        table_keys={assoc: classification_key(digest, analysis.geometry,
                                              assoc)
                    for assoc in assocs},
        tables=tables,
        srb_hits=srb_hits,
        stats=analysis.stats.as_dict(),
        analysis=None if carry_tables else analysis)


def classify_stage(name: str, geometries, mechanisms, cache
                   ) -> tuple[CacheAnalysis, ...]:
    """Stage task: classify one benchmark at every geometry of a group.

    ``geometries`` share one line size.  Several geometries run the
    stacked kernel (one Must/May fixpoint pair plus one SRB fixpoint
    for the whole group); a single geometry runs the plain analysis.
    Returns the analyses in group order; they share one stats object
    when stacked.  The value never leaves its process: the fused
    solve task consumes it in place.
    """
    cfg = load(name).cfg
    if len(geometries) > 1:
        from repro.analysis.geometry_batch import grouped_analysis

        return grouped_analysis(cfg, geometries, mechanisms, cache=cache)
    analysis = CacheAnalysis(cfg, geometries[0], cache=cache)
    classification_artifact(analysis, name, mechanisms, carry_tables=False)
    return (analysis,)


@dataclass(frozen=True)
class SolveOutput:
    """Pool-safe output of one (benchmark, line size) solve task.

    ``geometries`` maps each geometry of the group to its fault-free
    WCET and its Fault Miss Map per mechanism; ``counters`` holds the
    solver and analysis work of the classify + solve pair.
    """

    geometries: dict = field(repr=False)
    counters: dict[str, float] = field(repr=False)


def solve_stage(mechanisms, config, analyses) -> SolveOutput:
    """Stage task: WCET + FMMs of one benchmark at a group's geometries.

    One flow polytope and one planner serve every objective of the
    group, in a fixed order (per geometry: WCET, then each mechanism's
    FMM), so in-process dedup — and with it every counter — is
    deterministic.  ``config`` supplies the timing model, the solver
    mode and the cache selector.
    """
    from repro.fmm import compute_fault_miss_map
    from repro.ipet import FlowModel, compute_wcet
    from repro.solve.store import SolveStore, solve_context

    lead = analyses[0]
    cfg = lead.cfg
    flow_model = FlowModel(cfg, lead.forest)
    planner = flow_model.planner
    store = SolveStore.resolve(config.cache)
    if store is not None:
        planner.attach_store(store, solve_context(
            cfg.digest(), lead.geometry.block_bytes))
    geometries = {}
    for analysis in analyses:
        wcet = compute_wcet(cfg, analysis.classification(), config.timing,
                            flow_model=flow_model, relaxed=config.relaxed,
                            planner=planner)
        fmms = {name: compute_fault_miss_map(
                    analysis, mechanism_by_name(name),
                    flow_model=flow_model, relaxed=config.relaxed,
                    planner=planner)
                for name in mechanisms}
        geometries[analysis.geometry] = (wcet.cycles, fmms)
    return SolveOutput(geometries=geometries,
                       counters={**planner.stats.as_dict(),
                                 **lead.stats.as_dict()})


@dataclass(frozen=True)
class CellsOutput:
    """The (mechanism, pfail) rows one cells task computed.

    ``rows`` maps ``(mechanism, pfail)`` to the finished
    :class:`~repro.pwcet.estimator.PWCETEstimate` — or, when the
    consumer only needs it, to the pWCET at the target probability.
    """

    rows: dict = field(repr=False)
    counters: dict[str, float] = field(default_factory=dict, repr=False)


def cell_stage(name: str, geometry, config, rows, probability,
               solve_output: SolveOutput) -> CellsOutput:
    """Stage task: the missing (mechanism, pfail) rows of one geometry.

    ``rows`` is ``((mechanism, ((pfail, cell key), ...)), ...)``.  The
    FMM's penalty points are pfail-independent, so each mechanism's
    whole pfail axis comes out of one
    :func:`~repro.pwcet.batch.penalty_distributions` pass, each row
    bit-identical to an unbatched computation.  Every row is written
    through the cell store under its content address.  ``probability``
    reduces the returned rows to pWCET values (``None`` keeps the
    estimates).
    """
    from repro.faults import FaultProbabilityModel
    from repro.pipeline.cellstore import CellStore, encode_cell
    from repro.pwcet.batch import penalty_distributions
    from repro.pwcet.estimator import PWCETEstimate

    wcet, fmms = solve_output.geometries[geometry]
    store = CellStore.resolve(config.cache)
    computed = {}
    batched = 0
    for mechanism_name, axis in rows:
        mechanism = mechanism_by_name(mechanism_name)
        fmm = fmms[mechanism_name]
        models = [FaultProbabilityModel(geometry=geometry, pfail=pfail)
                  for pfail, _ in axis]
        distributions = penalty_distributions(fmm, mechanism, models,
                                              geometry.sets)
        batched += len(axis) - 1
        for (pfail, key), model, distribution in zip(axis, models,
                                                     distributions):
            estimate = PWCETEstimate(
                program_name=name,
                mechanism_name=mechanism_name,
                wcet_fault_free=wcet,
                penalty_misses=distribution,
                timing=config.timing,
                fmm=fmm,
                exceedance_correction=mechanism.exceedance_correction(
                    model, geometry.sets))
            if store is not None:
                store.put(key, encode_cell(estimate))
            computed[(mechanism_name, pfail)] = (
                estimate if probability is None
                else estimate.pwcet(probability))
    counters = {"cells_computed": len(computed)}
    if batched:
        # Presence-gated: only when a mechanism's pfail axis ran as
        # one batch.
        counters["dist_batched_rows"] = batched
    return CellsOutput(rows=computed, counters=counters)


def zero_counters() -> dict[str, float]:
    """The all-zero solver+analysis counter template.

    The counters of a benchmark whose every row was served from the
    cell store: no classify or solve task ran, so nothing was counted
    — but downstream aggregation still finds every familiar key.
    """
    from repro.analysis.classify import AnalysisStats
    from repro.solve.planner import SolveStats

    return {**SolveStats().as_dict(), **AnalysisStats().as_dict()}


def line_groups(geometries) -> tuple[tuple, ...]:
    """The geometries' line-size groups, in first-appearance order.

    Geometries of one group share the memory-block stream of every
    CFG (``block_of`` depends only on the line size): the stacked
    classification kernel's batching unit.
    """
    groups: dict[int, list] = {}
    for geometry in geometries:
        groups.setdefault(geometry.block_bytes, []).append(geometry)
    return tuple(tuple(group) for group in groups.values())


def _geometry_label(geometry) -> str:
    return (f"{geometry.total_bytes}B/{geometry.ways}w/"
            f"{geometry.block_bytes}B")


class EstimationDag:
    """One estimation grid laid out on a scheduler (see module doc).

    ``selection`` maps each pfail to the mechanisms estimated at it
    (the unprotected baseline included), in presentation order.
    ``pool`` lets classify/solve/cell tasks run on the process pool;
    ``probability`` reduces rows to pWCET values (see
    :func:`cell_stage`).  The plan-pass probes count served rows into
    ``stats``; :meth:`record` merges the counters of every completed
    task.
    """

    def __init__(self, scheduler: PipelineScheduler, benchmarks,
                 geometries, selection, config, *, pool: bool = False,
                 probability: float | None = None,
                 stats: PipelineStats | None = None) -> None:
        from repro.analysis.store import ClassificationStore
        from repro.pipeline.cellstore import CellStore
        from repro.solve.store import SolveStore

        self.stats = stats if stats is not None else PipelineStats()
        # Every familiar key is present even when the plan pass serves
        # every row (no classify or solve task runs).
        self.stats.merge_counters(zero_counters())
        #: solve key -> the counters its task reported
        self._solve_counters: dict[str, dict] = {}
        #: cells key -> the solve key feeding it
        self._solve_of: dict[str, str] = {}
        #: cells key -> rows the plan pass decoded from the cell store
        self._served: dict[str, dict] = {}
        #: (benchmark, geometry) -> cells key
        self._cells: dict[tuple, str] = {}
        cell_store = CellStore.resolve(config.cache)
        for store in (SolveStore.resolve(config.cache),
                      ClassificationStore.resolve(config.cache),
                      cell_store):
            if store is not None:
                # Fold in shards written since the handle last loaded
                # (pool workers of an earlier run in this process).
                store.refresh()
        mechanisms = tuple(name for name in SUITE_MECHANISMS
                           if any(name in chosen
                                  for chosen in selection.values()))
        programs = {name: load(name) for name in benchmarks}
        # Heaviest programs dispatch first: their classify + solve
        # chains are the longest tasks of the run.
        heaviness = sorted(benchmarks,
                           key=lambda name: (
                               -programs[name].cfg.instruction_count(),
                               benchmarks.index(name)))
        for name in benchmarks:
            digest = programs[name].cfg.digest()
            rank = heaviness.index(name)
            for group in line_groups(geometries):
                line = group[0].block_bytes
                classify_key = scheduler.add(
                    f"classify:{name}:{line}", classify_stage,
                    args=(name, group, mechanisms, config.cache),
                    stage="classify", pool=pool,
                    order_key=f"0:{rank:04d}:{line:04d}")
                solve_key = scheduler.add(
                    f"solve:{name}:{line}", solve_stage,
                    args=(mechanisms, config), deps=(classify_key,),
                    stage="solve", pool=pool, fuse=True)
                for geometry in group:
                    self._add_cells(scheduler, name, digest, geometry,
                                    geometries.index(geometry),
                                    selection, config, solve_key,
                                    cell_store, pool, probability,
                                    benchmarks.index(name))

    def _add_cells(self, scheduler, name, digest, geometry, position,
                   selection, config, solve_key, cell_store, pool,
                   probability, bench_index) -> None:
        from repro.solve.store import store_context

        context = store_context(digest, geometry, config.timing)
        keys = {(mechanism, pfail): DistributionArtifact.derive_key(
                    context, mechanism, pfail)
                for pfail, chosen in selection.items()
                for mechanism in chosen}
        task_key = f"cells:{name}:{_geometry_label(geometry)}"
        #: The task's rows; the plan-pass probe fills it before any
        #: task runs (so a pool task pickles it filled).
        rows: list = []

        def probe():
            served, axes = self._probe_rows(
                cell_store, keys, name, replace(config, geometry=geometry),
                probability)
            if served and task_key not in self._served:
                self.stats.merge_counters(
                    {"cells_from_store": len(served)})
            self._served[task_key] = served
            rows[:] = [(mechanism, tuple(axes[mechanism]))
                       for mechanism in SUITE_MECHANISMS
                       if mechanism in axes]
            return None if rows else CellsOutput(rows={})

        self._cells[(name, geometry)] = task_key
        self._solve_of[task_key] = solve_key
        scheduler.add(
            task_key, cell_stage,
            args=(name, geometry, config, rows, probability),
            deps=(solve_key,), stage="cell", pool=pool,
            order_key=f"1:{position:04d}:{bench_index:04d}", probe=probe)

    @staticmethod
    def _probe_rows(cell_store, keys, name, config, probability):
        """Split one task's rows into stored (decoded) and missing.

        Returns ``(served, axes)``: ``served`` maps ``(mechanism,
        pfail)`` to the decoded row, ``axes`` maps each mechanism to
        its missing ``(pfail, cell key)`` pairs in selection order.
        """
        from repro.pipeline.cellstore import decode_cell

        served = {}
        axes: dict[str, list] = {}
        for (mechanism, pfail), key in keys.items():
            value = cell_store.get(key) if cell_store is not None \
                else None
            estimate = None
            if value is not None:
                estimate = decode_cell(value, name=name,
                                       mechanism=mechanism, config=config,
                                       pfail=pfail)
            if estimate is None:
                axes.setdefault(mechanism, []).append((pfail, key))
            else:
                served[(mechanism, pfail)] = (
                    estimate if probability is None
                    else estimate.pwcet(probability))
        return served, axes

    def cells_key(self, name: str, geometry) -> str:
        return self._cells[(name, geometry)]

    def rows(self, key: str, output: CellsOutput) -> dict:
        """Every (mechanism, pfail) row of one cells task: the rows
        served from the store plus the ones the task computed."""
        return {**self._served[key], **output.rows}

    def solve_counters(self, key: str) -> dict[str, float]:
        """The counters of the solve task feeding one cells task (the
        zero template when the plan pass skipped it)."""
        return self._solve_counters.get(self._solve_of[key],
                                        zero_counters())

    def served_count(self, key: str) -> int:
        """Rows of one cells task the plan pass served from the store
        (each counted once into ``cells_from_store``)."""
        return len(self._served[key])

    def record(self, key: str, value) -> None:
        """Task-completion hook: one counter channel for every run."""
        if isinstance(value, SolveOutput):
            self._solve_counters[key] = value.counters
        if isinstance(value, (SolveOutput, CellsOutput)):
            self.stats.merge_counters(value.counters)


def suite_pipeline(benchmarks, config, target_probability: float, *,
                   workers: int = 1,
                   stats: PipelineStats | None = None,
                   strict: bool = True,
                   retry=None) -> dict[str, object]:
    """Run the suite DAG; returns BenchmarkResults keyed by name.

    The 1-geometry × 1-pfail case of :class:`EstimationDag`, plus one
    inline ``result:{bench}`` sink per benchmark.  ``workers > 1``
    runs classify/solve/cell tasks on one shared process pool;
    ``workers=1`` runs the same DAG inline.  Results are bit-identical
    either way.  With ``strict=False`` a permanently failing
    benchmark maps to a :class:`~repro.pipeline.resilience.TaskFailure`
    instead of aborting the suite.
    """
    from repro.experiments.runner import BenchmarkResult
    from repro.pipeline.resilience import DEFAULT_RETRY_POLICY

    # Dedupe while preserving order: a repeated benchmark name is one
    # task (and one result entry), exactly like the memoised runner.
    benchmarks = tuple(dict.fromkeys(benchmarks))
    if stats is None:
        stats = PipelineStats()
    scheduler = PipelineScheduler(
        workers=workers,
        retry=retry if retry is not None else DEFAULT_RETRY_POLICY,
        strict=strict)
    dag = EstimationDag(scheduler, benchmarks, (config.geometry,),
                        {config.pfail: SUITE_MECHANISMS}, config,
                        pool=workers > 1, stats=stats)

    def result(name, key, cells: CellsOutput):
        rows = dag.rows(key, cells)
        counters = dict(dag.solve_counters(key))
        extras = dict(cells.counters)
        if dag.served_count(key):
            extras["cells_from_store"] = dag.served_count(key)
        for counter, value in extras.items():
            counters[counter] = counters.get(counter, 0) + value
        estimates = {mechanism: rows[(mechanism, config.pfail)]
                     for mechanism in SUITE_MECHANISMS}
        return BenchmarkResult(
            name=name,
            wcet_fault_free=estimates["none"].wcet_fault_free,
            estimates=estimates,
            target_probability=target_probability,
            solver_stats=counters)

    result_keys = {}
    for name in benchmarks:
        key = dag.cells_key(name, config.geometry)
        result_keys[name] = scheduler.add(
            f"result:{name}",
            lambda cells, name=name, key=key: result(name, key, cells),
            deps=(key,), stage="result")
    results = scheduler.run(
        stats=stats, on_task=lambda key, value, *_: dag.record(key, value))
    return {name: results[result_keys[name]] for name in benchmarks}
