"""Stage functions and the one DAG builder of the estimation pipeline.

:class:`EstimationDag` lays a whole (programs × geometries × pfails)
grid, times a mechanism tuple (the paper's three unless a caller asks
for others), out as one flat DAG on one
:class:`~repro.pipeline.scheduler.PipelineScheduler`; the suite is its
1-geometry × 1-pfail case, and a single-benchmark command or a
:class:`~repro.pwcet.PWCETEstimator` its one-program case.  Stages
take the program's CFG, never a suite name: the drivers load the
suite's CFGs and pass them in, and any other program runs through the
same DAG.  Per program:

``solve:{bench}:{line}`` — :func:`solve_stage`
    First every classification table (and SRB hit set) the
    mechanisms need for one CFG, at every geometry of one line-size
    group, from ONE stacked Must/May fixpoint pair plus one SRB
    fixpoint (:func:`~repro.analysis.geometry_batch.grouped_analysis`),
    read and written through the
    :class:`~repro.analysis.store.ClassificationStore`; the tables
    never leave the task's process.  Then ONE flow polytope
    (:class:`~repro.ipet.FlowModel`) and one
    :class:`~repro.solve.planner.SolvePlanner` for the program: the
    polytope is geometry-independent, so the fault-free WCET and every
    mechanism's Fault Miss Map at every geometry of the group are
    objectives over it, and duplicate objectives dedup in-process.
    Solves read and write through the
    :class:`~repro.solve.store.SolveStore`.

``cells:{bench}:{geometry}`` — :func:`cell_stage`
    The (mechanism × pfail) rows of one geometry: one batched
    penalty-convolution pass per mechanism
    (:func:`~repro.pwcet.batch.penalty_distributions`) over the rows
    the :class:`~repro.pipeline.cellstore.CellStore` does not hold yet;
    every row is written through under its own content address.  Rows
    carry no distribution (see :func:`cell_stage`).

Each cells task's plan-pass probe looks up every (mechanism, pfail)
row's content address before any task runs: stored rows are decoded
in the parent, a task whose rows are all stored is satisfied (and its
now-undemanded solve task is skipped), and a partially stored task
computes only its missing rows.  Sinks — the
suite's per-benchmark results
(:func:`~repro.experiments.runner.run_suite`), the sweep's design
points (:func:`~repro.sweep.service.run_sweep`) — are added by the
drivers and read each task's rows through :meth:`EstimationDag.rows`.

Counters travel on one channel: every solve and cells task's work
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
    from repro.cfg import CFG

#: The paper's three configurations, in presentation order: every
#: suite and sweep cell estimates all three, since each gain is
#: measured against the unprotected cache of the same cell.  The
#: default mechanism tuple of :class:`EstimationDag`.
SUITE_MECHANISMS = ("none", "srb", "rw")


def _batched(store):
    """One write transaction for a stage's store writes (if any)."""
    return store.batch() if store is not None else nullcontext()


@dataclass(frozen=True)
class SolveOutput:
    """Pool-safe output of one (benchmark, line size) solve task.

    ``geometries`` maps each geometry of the group to its fault-free
    WCET and its Fault Miss Map per mechanism; ``counters`` holds the
    task's analysis and solver work.
    """

    geometries: dict = field(repr=False)
    counters: dict[str, float] = field(repr=False)


def solve_stage(cfg: CFG, geometries, config,
                mechanisms=SUITE_MECHANISMS) -> SolveOutput:
    """Stage task: WCET + FMMs of one program at a group's geometries.

    ``geometries`` share one line size; the group (of one, for the
    suite) is classified by one Must/May fixpoint pair plus one SRB
    fixpoint, then one flow polytope and one planner serve every
    objective of the group, in a fixed order (per geometry: WCET, then
    the FMM of each of ``mechanisms``), so in-process dedup — and with
    it every counter — is deterministic.  The planner reads and writes
    the :class:`~repro.solve.store.SolveStore` under the (CFG digest,
    line size) context.  ``config`` supplies the timing model, the
    solver mode and the cache selector.
    """
    from repro.analysis.geometry_batch import grouped_analysis
    from repro.analysis.store import ClassificationStore
    from repro.fmm import compute_fault_miss_map
    from repro.ipet import FlowModel, compute_wcet
    from repro.solve.store import SolveStore, solve_context

    with _batched(ClassificationStore.resolve(config.cache)):
        analyses = grouped_analysis(cfg, geometries, mechanisms,
                                    cache=config.cache)
    lead = analyses[0]
    flow_model = FlowModel(cfg, lead.forest)
    store = SolveStore.resolve(config.cache)
    if store is not None:
        flow_model.planner.attach_store(store, solve_context(
            cfg.digest(), lead.geometry.block_bytes))
    outputs = {}
    with _batched(store):
        for analysis in analyses:
            wcet = compute_wcet(cfg, analysis.classification(),
                                config.timing, flow_model=flow_model,
                                relaxed=config.relaxed)
            fmms = {name: compute_fault_miss_map(
                        analysis, mechanism_by_name(name),
                        flow_model=flow_model, relaxed=config.relaxed)
                    for name in mechanisms}
            outputs[analysis.geometry] = (wcet.cycles, fmms)
    return SolveOutput(geometries=outputs,
                       counters={**flow_model.planner.stats.as_dict(),
                                 **lead.stats.as_dict()})


@dataclass(frozen=True)
class CellsOutput:
    """The (mechanism, pfail) rows one cells task computed.

    ``rows`` maps ``(mechanism, pfail)`` to the finished
    :class:`~repro.pwcet.estimator.PWCETEstimate`, reduced to its
    pWCET at the run's probability.  The distribution that pWCET was
    read from was capped at that level, so it is never kept: a
    consumer that asks for one gets the full distribution,
    recomputed from the FMM.
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
    computed independently of its siblings.  Each row is read at one
    level, ``probability`` less the mechanism's excluded mass, so the
    pass folds only up to the lowest of those levels (its
    ``exceedance``); the kernel certifies the cap, and each pWCET
    meets the exact-rational contract (``tests/exact_suite.py`` checks
    the suite's).  When the lowest
    level is not positive the pass folds in full, and a row whose own
    level is not positive holds no pWCET
    (:meth:`~repro.pwcet.estimator.PWCETEstimate.certifies`): its
    :meth:`~repro.pwcet.estimator.PWCETEstimate.pwcet` refuses the
    level.  Every row is reduced to its pWCET at ``probability`` and
    written through the cell store under its content address.
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
        # The lowest level any row reads.
        exceedance = probability - max(
            mechanism.exceedance_correction(model, geometry.sets)
            for model in models)
        distributions = penalty_distributions(
            fmm, mechanism, models, geometry.sets,
            exceedance=exceedance if exceedance > 0.0 else None)
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
    order; any CFG will do, not only the suite's.  Every (geometry,
    pfail) cell estimates each of ``mechanisms`` (default:
    :data:`SUITE_MECHANISMS`; the cell key binds the mechanism, so
    any tuple reads and writes the same rows), and ``pfails`` lists
    the grid's pfail axis without repeats.
    Solve and cells tasks may run on the scheduler's process pool
    (inline at one worker); ``probability`` is the exceedance
    probability every row is reduced to (see :func:`cell_stage`;
    default: the paper's target).
    The plan-pass probes count served rows into ``stats``;
    :meth:`record` adds the counters of every completed task.
    """

    def __init__(self, scheduler: PipelineScheduler, programs,
                 geometries, pfails, config, *,
                 probability: float | None = None,
                 stats: PipelineStats | None = None,
                 mechanisms=SUITE_MECHANISMS) -> None:
        from repro.analysis.store import ClassificationStore
        from repro.pipeline.cellstore import CellStore
        from repro.pwcet.estimator import TARGET_EXCEEDANCE
        from repro.solve.store import SolveStore

        if probability is None:
            probability = TARGET_EXCEEDANCE
        self.stats = stats if stats is not None else PipelineStats()
        self._mechanisms = tuple(dict.fromkeys(mechanisms))
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
        names = tuple(programs)
        # Heaviest programs dispatch first: their solve tasks are the
        # longest of the run.
        heaviness = sorted(names,
                           key=lambda name: (
                               -programs[name].instruction_count(),
                               names.index(name)))
        for name, cfg in programs.items():
            digest = cfg.digest()
            rank = heaviness.index(name)
            for group in line_groups(geometries):
                line = group[0].block_bytes
                solve_key = scheduler.add(
                    f"solve:{name}:{line}", solve_stage,
                    args=(cfg, group, config, self._mechanisms),
                    stage="solve", pool=True,
                    order_key=f"0:{rank:04d}:{line:04d}")
                for geometry in group:
                    self._add_cells(scheduler, name, digest, geometry,
                                    geometries.index(geometry),
                                    pfails, config, solve_key,
                                    cell_store, probability,
                                    names.index(name))

    def _add_cells(self, scheduler, name, digest, geometry, position,
                   pfails, config, solve_key, cell_store,
                   probability, bench_index) -> None:
        from repro.pipeline.cellstore import cell_key
        from repro.solve.store import store_context

        context = store_context(digest, geometry, config.timing)
        keys = {(mechanism, pfail): cell_key(context, mechanism, pfail,
                                             config.relaxed)
                for pfail in pfails for mechanism in self._mechanisms}
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
                       for mechanism in self._mechanisms
                       if mechanism in axes]
            return None if rows else CellsOutput(rows={})

        self._cells[(name, geometry)] = task_key
        scheduler.add(
            task_key, cell_stage,
            args=(name, geometry, config, rows, probability),
            deps=(solve_key,), stage="cell", pool=True,
            order_key=f"1:{position:04d}:{bench_index:04d}", probe=probe)

    @staticmethod
    def _probe_rows(cell_store, keys, name, config, probability):
        """Split one task's rows into stored (decoded) and missing.

        Returns ``(served, axes)``: ``served`` maps ``(mechanism,
        pfail)`` to the decoded row reduced to ``probability`` (a row
        stored at another probability recomputes its pWCET from the
        FMM, and holds none at a level its analysis cannot certify),
        ``axes`` maps each mechanism to its missing ``(pfail, cell
        key)`` pairs in pfail order.
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

