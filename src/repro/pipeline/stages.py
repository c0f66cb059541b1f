"""Stage functions and the one DAG builder of the estimation pipeline.

:class:`EstimationDag` lays a whole (programs × geometries × pfails ×
mechanisms) grid out as one flat DAG on one
:class:`~repro.pipeline.scheduler.PipelineScheduler`; the suite is its
1-geometry × 1-pfail case.  Stages take the program's CFG, never a
suite name: the drivers load the suite's CFGs and pass them in, and
any other program runs through the same DAG.  Per program:

``classify:{bench}:{line}`` — :func:`classify_stage`
    Every classification table (and SRB hit set) the requested
    mechanisms need for one CFG, at every geometry of one line-size
    group, from ONE stacked Must/May fixpoint pair plus one SRB
    fixpoint (:func:`~repro.analysis.geometry_batch.grouped_analysis`).
    Tables read and write through the
    :class:`~repro.analysis.store.ClassificationStore`.

``solve:{bench}:{line}`` — :func:`solve_stage`
    Fused to its classify task (same process, right after it, so the
    tables never cross a process boundary).  Builds ONE flow polytope
    (:class:`~repro.ipet.FlowModel`) and one
    :class:`~repro.solve.planner.SolvePlanner` for the program
    (:func:`solve_polytope`, shared with the one-geometry
    :class:`~repro.pwcet.PWCETEstimator`): the polytope is
    geometry-independent, so the fault-free WCET and every
    mechanism's Fault Miss Map at every geometry of the group are
    objectives over it, and duplicate objectives dedup in-process.
    Solves read and write through the
    :class:`~repro.solve.store.SolveStore`.

``cells:{bench}:{geometry}`` — :func:`cell_stage`
    The mechanism and pfail axes of one geometry: one batched
    penalty-convolution pass per mechanism
    (:func:`~repro.pwcet.batch.penalty_distributions`) over the rows
    the :class:`~repro.pipeline.cellstore.CellStore` does not hold yet;
    every row is written through under its own content address.  Rows
    carry no distribution (see :func:`cell_stage`).

Each cells task's plan-pass probe looks up every (mechanism, pfail)
row's content address before any task runs: stored rows are decoded
in the parent, a task whose rows are all stored is satisfied
(and its now-undemanded classify and solve tasks are skipped), and a
partially stored task computes only its missing rows.  Sinks — the
suite's per-benchmark results, the sweep's design points — are added
by the drivers and read each task's rows through
:meth:`EstimationDag.rows`.

Counters travel on one channel: every classify/solve/cell task's work
counters are added to the run's
:class:`~repro.pipeline.scheduler.PipelineStats` as the task completes
(:meth:`EstimationDag.record`), and mean the same thing for a suite
and a sweep.  Each node only ever reads store keys it owns (keys embed
the CFG digest and the line size or geometry), so a run never reads
its own writes: counters and reports are identical at any worker
count, with or without the stores.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.pipeline.scheduler import PipelineScheduler, PipelineStats
from repro.reliability import mechanism_by_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import CacheAnalysis
    from repro.cfg import CFG
    from repro.ipet import FlowModel
    from repro.solve.store import SolveStore

#: The paper's three configurations, in presentation order — the
#: mechanism set of every suite/sweep estimation.
SUITE_MECHANISMS = ("none", "srb", "rw")


def _batched(store):
    """One write transaction for a stage's store writes (if any)."""
    return store.batch() if store is not None else nullcontext()


def classify_stage(cfg: CFG, geometries, mechanisms, cache
                   ) -> tuple[CacheAnalysis, ...]:
    """Stage task: classify one program at every geometry of a group.

    ``geometries`` share one line size; the group (of one, for the
    suite) runs one Must/May fixpoint pair plus one SRB fixpoint.
    Returns the analyses in group order; they share one stats object.
    The value never leaves its process: the fused solve task consumes
    it in place.
    """
    from repro.analysis.geometry_batch import grouped_analysis
    from repro.analysis.store import ClassificationStore

    with _batched(ClassificationStore.resolve(cache)):
        return grouped_analysis(cfg, geometries, mechanisms, cache=cache)


def solve_polytope(analysis: CacheAnalysis, cache
                   ) -> tuple[FlowModel, SolveStore | None]:
    """The flow polytope of an analysis' CFG, wired to the solve store.

    One polytope serves every objective of the analysis' line size
    (the fault-free WCET and each mechanism's FMM at every geometry
    of the group), and its planner dedups them all.  The planner
    reads and writes the :class:`~repro.solve.store.SolveStore`
    selected by ``cache`` (returned too; ``None`` when persistence is
    off) under the (CFG digest, line size) context.
    """
    from repro.ipet import FlowModel
    from repro.solve.store import SolveStore, solve_context

    cfg = analysis.cfg
    flow_model = FlowModel(cfg, analysis.forest)
    store = SolveStore.resolve(cache)
    if store is not None:
        flow_model.planner.attach_store(store, solve_context(
            cfg.digest(), analysis.geometry.block_bytes))
    return flow_model, store


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
    from repro.ipet import compute_wcet

    lead = analyses[0]
    flow_model, store = solve_polytope(lead, config.cache)
    geometries = {}
    with _batched(store):
        for analysis in analyses:
            wcet = compute_wcet(lead.cfg, analysis.classification(),
                                config.timing, flow_model=flow_model,
                                relaxed=config.relaxed)
            fmms = {name: compute_fault_miss_map(
                        analysis, mechanism_by_name(name),
                        flow_model=flow_model, relaxed=config.relaxed)
                    for name in mechanisms}
            geometries[analysis.geometry] = (wcet.cycles, fmms)
    return SolveOutput(geometries=geometries,
                       counters={**flow_model.planner.stats.as_dict(),
                                 **lead.stats.as_dict()})


@dataclass(frozen=True)
class CellsOutput:
    """The (mechanism, pfail) rows one cells task computed.

    ``rows`` maps ``(mechanism, pfail)`` to the finished
    :class:`~repro.pwcet.estimator.PWCETEstimate`, reduced to its
    pWCET at the run's probability (its distribution is recomputed
    from the FMM only if a consumer asks for it).
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
    bit-identical to an unbatched computation.  Every row is reduced
    to its pWCET at ``probability`` and written through the cell store
    under its content address.
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
            estimate = PWCETEstimate.of(
                name, mechanism, wcet, fmm, model, config.timing,
                distribution).reduced(probability)
            if store is not None:
                store.put(key, encode_cell(estimate))
            computed[(mechanism_name, pfail)] = estimate
    return CellsOutput(rows=computed,
                       counters={"cells_computed": len(computed),
                                 "dist_batched_rows": batched})


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

    ``programs`` maps each program's name to its CFG, in presentation
    order; any CFG will do, not only the suite's.  ``selection`` maps
    each pfail to the mechanisms estimated at it (the unprotected
    baseline included), in presentation order.
    ``pool`` lets classify/solve/cell tasks run on the process pool;
    ``probability`` is the exceedance probability every row is
    reduced to (see :func:`cell_stage`; default: the paper's target).
    The plan-pass probes count served rows into ``stats``;
    :meth:`record` adds the counters of every completed task.
    """

    def __init__(self, scheduler: PipelineScheduler, programs,
                 geometries, selection, config, *, pool: bool = False,
                 probability: float | None = None,
                 stats: PipelineStats | None = None) -> None:
        from repro.analysis.store import ClassificationStore
        from repro.pipeline.cellstore import CellStore
        from repro.pwcet.estimator import TARGET_EXCEEDANCE
        from repro.solve.store import SolveStore

        if probability is None:
            probability = TARGET_EXCEEDANCE
        self.stats = stats if stats is not None else PipelineStats()
        #: cells key -> rows the plan pass decoded from the cell store
        self._served: dict[str, dict] = {}
        #: (benchmark, geometry) -> cells key
        self._cells: dict[tuple, str] = {}
        cell_store = CellStore.resolve(config.cache)
        for store in (SolveStore.resolve(config.cache),
                      ClassificationStore.resolve(config.cache),
                      cell_store):
            if store is not None:
                # Reconnect if the database file was replaced since
                # the handle last opened it.
                store.refresh()
        mechanisms = tuple(name for name in SUITE_MECHANISMS
                           if any(name in chosen
                                  for chosen in selection.values()))
        names = tuple(programs)
        # Heaviest programs dispatch first: their classify + solve
        # chains are the longest tasks of the run.
        heaviness = sorted(names,
                           key=lambda name: (
                               -programs[name].instruction_count(),
                               names.index(name)))
        for name, cfg in programs.items():
            digest = cfg.digest()
            rank = heaviness.index(name)
            for group in line_groups(geometries):
                line = group[0].block_bytes
                classify_key = scheduler.add(
                    f"classify:{name}:{line}", classify_stage,
                    args=(cfg, group, mechanisms, config.cache),
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
                                    names.index(name))

    def _add_cells(self, scheduler, name, digest, geometry, position,
                   selection, config, solve_key, cell_store, pool,
                   probability, bench_index) -> None:
        from repro.pipeline.cellstore import cell_key
        from repro.solve.store import store_context

        context = store_context(digest, geometry, config.timing)
        keys = {(mechanism, pfail): cell_key(context, mechanism, pfail)
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
            if task_key not in self._served:
                self.stats.counters["cells_from_store"] += len(served)
            self._served[task_key] = served
            rows[:] = [(mechanism, tuple(axes[mechanism]))
                       for mechanism in SUITE_MECHANISMS
                       if mechanism in axes]
            return None if rows else CellsOutput(rows={})

        self._cells[(name, geometry)] = task_key
        scheduler.add(
            task_key, cell_stage,
            args=(name, geometry, config, rows, probability),
            deps=(solve_key,), stage="cell", pool=pool,
            order_key=f"1:{position:04d}:{bench_index:04d}", probe=probe)

    @staticmethod
    def _probe_rows(cell_store, keys, name, config, probability):
        """Split one task's rows into stored (decoded) and missing.

        Returns ``(served, axes)``: ``served`` maps ``(mechanism,
        pfail)`` to the decoded row reduced to ``probability`` (a row
        stored at another probability recomputes its pWCET from the
        FMM), ``axes`` maps each mechanism to its missing ``(pfail,
        cell key)`` pairs in selection order.
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
                served[(mechanism, pfail)] = estimate.reduced(probability)
        return served, axes

    def cells_key(self, name: str, geometry) -> str:
        return self._cells[(name, geometry)]

    def rows(self, key: str, output: CellsOutput) -> dict:
        """Every (mechanism, pfail) row of one cells task: the rows
        served from the store plus the ones the task computed."""
        return {**self._served[key], **output.rows}

    def record(self, key: str, value) -> None:
        """Task-completion hook: one counter channel for every run."""
        if isinstance(value, (SolveOutput, CellsOutput)):
            self.stats.counters.update(value.counters)


def suite_pipeline(programs, config, target_probability: float, *,
                   workers: int = 1,
                   stats: PipelineStats | None = None
                   ) -> dict[str, object]:
    """Run the suite DAG; returns BenchmarkResults keyed by name.

    ``programs`` maps each name to its CFG, as for
    :class:`EstimationDag`.  The 1-geometry × 1-pfail case of the DAG,
    plus one inline ``result:{bench}`` sink per benchmark.  ``workers > 1``
    runs classify/solve/cell tasks on one shared process pool;
    ``workers=1`` runs the same DAG inline.  Results are bit-identical
    either way.
    """
    from repro.experiments.runner import BenchmarkResult

    if stats is None:
        stats = PipelineStats()
    scheduler = PipelineScheduler(workers=workers)
    dag = EstimationDag(scheduler, programs, (config.geometry,),
                        {config.pfail: SUITE_MECHANISMS}, config,
                        pool=workers > 1, probability=target_probability,
                        stats=stats)

    def result(name, key, cells: CellsOutput):
        rows = dag.rows(key, cells)
        estimates = {mechanism: rows[(mechanism, config.pfail)]
                     for mechanism in SUITE_MECHANISMS}
        return BenchmarkResult(
            name=name,
            wcet_fault_free=estimates["none"].wcet_fault_free,
            estimates=estimates,
            target_probability=target_probability)

    result_keys = {}
    for name in programs:
        key = dag.cells_key(name, config.geometry)
        result_keys[name] = scheduler.add(
            f"result:{name}",
            lambda cells, name=name, key=key: result(name, key, cells),
            deps=(key,), stage="result")
    results = scheduler.run(
        stats=stats, on_task=lambda key, value, *_: dag.record(key, value))
    return {name: results[result_keys[name]] for name in programs}
