"""The multi-geometry sweep service (design-stage exploration).

Estimates the benchmark suite at every (geometry, pfail) grid cell,
aggregates pWCET gain and hardware cost per reliability mechanism, and
extracts the Pareto-optimal design points.

The whole grid is ONE flat DAG
(:class:`~repro.pipeline.stages.EstimationDag`) on one worker
pool: per benchmark and line size, one solve task runs the stacked
Must/May kernel for every geometry of the line-size group, then
solves every geometry's WCET and Fault Miss Maps against one shared
flow polytope; per benchmark and geometry, one
cells task computes the whole (mechanism, pfail) axis in batched
penalty-convolution passes.  Per grid cell, an inline ``sweep-cell``
sink turns the benchmarks' pWCETs into design points and streams them
through ``on_cell`` as it completes.  The report is assembled in grid
order, so it is byte-identical at any worker count.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hwcost.model import MechanismCostModel
from repro.pipeline.scheduler import PipelineScheduler, PipelineStats
from repro.pipeline.stages import SUITE_MECHANISMS, EstimationDag
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.reliability import MECHANISMS
from repro.suite import EVALUATED_BENCHMARKS, load
from repro.sweep.grid import (DEFAULT_PFAILS, SweepCell, geometry_grid,
                              sweep_cells)

#: Mechanisms compared by the sweep (paper's three configurations).
SWEEP_MECHANISMS = tuple(mechanism.name for mechanism in MECHANISMS)


@dataclass(frozen=True)
class DesignPoint:
    """One (geometry, pfail, mechanism) point of the design space.

    ``mean_gain`` is the paper's gain notion — pWCET reduction versus
    the unprotected cache *of the same cell*, averaged over the
    benchmark suite.  ``mean_pwcet`` is the absolute average pWCET in
    cycles, comparable across geometries.  ``area_cells`` is the total
    silicon budget of the configuration in 6T-cell equivalents
    (baseline arrays plus the mechanism's hardening overhead).
    """

    cell: SweepCell
    mechanism: str
    mean_pwcet: float
    mean_gain: float
    area_cells: float
    area_overhead: float
    leakage_cells: float

    @property
    def geometry(self):
        return self.cell.geometry

    @property
    def pfail(self) -> float:
        return self.cell.pfail


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced."""

    points: tuple[DesignPoint, ...]
    benchmarks: tuple[str, ...]
    probability: float
    #: The run's work counters (its ``PipelineStats.counters``).
    solver_totals: Counter[str]

    def cells(self) -> tuple[SweepCell, ...]:
        seen: dict[SweepCell, None] = {}
        for point in self.points:
            seen.setdefault(point.cell)
        return tuple(seen)

    def of_mechanism(self, mechanism: str) -> tuple[DesignPoint, ...]:
        return tuple(point for point in self.points
                     if point.mechanism == mechanism)


def pareto_front(points: tuple[DesignPoint, ...]
                 ) -> tuple[DesignPoint, ...]:
    """Non-dominated points of (hardware cost down, pWCET gain up).

    A point dominates another when it costs no more silicon and gains
    at least as much pWCET, strictly better in one of the two.  The
    front is returned cheapest-first.
    """
    front = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            if (other.area_cells <= candidate.area_cells
                    and other.mean_gain >= candidate.mean_gain
                    and (other.area_cells < candidate.area_cells
                         or other.mean_gain > candidate.mean_gain)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda point: (point.area_cells, -point.mean_gain))
    return tuple(front)


def _cell_points(cell: SweepCell, pwcets_by_benchmark,
                 mechanisms: tuple[str, ...] = SWEEP_MECHANISMS
                 ) -> tuple[DesignPoint, ...]:
    """The per-mechanism design points of one completed grid cell.

    ``pwcets_by_benchmark`` holds one ``{mechanism: pWCET}`` map per
    benchmark, in suite order.  ``mechanisms`` restricts which
    configurations emit a point (``--only-cells``); the paper's full
    set by default.  A gain is the pWCET reduction versus the
    unprotected cache, exactly as
    :meth:`~repro.experiments.runner.BenchmarkResult.gain` computes it.
    """
    cost_model = MechanismCostModel(cell.geometry)
    points = []
    for mechanism in MECHANISMS:
        if mechanism.name not in mechanisms:
            continue
        cost = cost_model.cost_of(mechanism)
        pwcets = [pwcet[mechanism.name] for pwcet in pwcets_by_benchmark]
        gains = [1.0 - pwcet[mechanism.name] / pwcet["none"]
                 for pwcet in pwcets_by_benchmark]
        points.append(DesignPoint(
            cell=cell,
            mechanism=mechanism.name,
            mean_pwcet=statistics.mean(pwcets),
            mean_gain=statistics.mean(gains),
            area_cells=cost.total_cell_equivalents,
            area_overhead=cost.area_overhead_ratio,
            leakage_cells=cost.leakage_equivalents))
    return tuple(points)


def _selection(only_cells, pfails):
    """Normalise ``--only-cells`` filters into pfail → mechanism map.

    Each filter is a ``(mechanism | None, pfail | None)`` pair —
    ``None`` is a wildcard on that axis.  Returns the mechanisms (in
    presentation order) selected at every surviving pfail; pfails no
    filter matches are dropped from the grid entirely.  With no
    filters the whole grid is selected.
    """
    if not only_cells:
        return {pfail: SWEEP_MECHANISMS for pfail in pfails}
    filters = []
    for mechanism, pfail in only_cells:
        if mechanism is not None and mechanism not in SWEEP_MECHANISMS:
            raise ConfigurationError(
                f"--only-cells: unknown mechanism {mechanism!r} "
                f"(choose from {', '.join(SWEEP_MECHANISMS)})")
        filters.append((mechanism, pfail))
    selection = {}
    for pfail in pfails:
        mechanisms = tuple(
            name for name in SWEEP_MECHANISMS
            if any((want_mech is None or want_mech == name)
                   and (want_pfail is None or want_pfail == pfail)
                   for want_mech, want_pfail in filters))
        if mechanisms:
            selection[pfail] = mechanisms
    if not selection:
        raise ConfigurationError(
            "--only-cells selected no cells: no filter matches any "
            f"grid pfail ({', '.join(format(p, 'g') for p in pfails)})")
    return selection


def _estimation_mechanisms(point_mechanisms: tuple[str, ...]
                           ) -> tuple[str, ...]:
    """The mechanism set a filtered cell must actually estimate.

    The unprotected baseline is always included (gain is defined
    against it), in the suite's canonical order — so a filtered cell's
    selected estimates are bit-identical to the full run's.
    """
    return tuple(name for name in SUITE_MECHANISMS
                 if name == "none" or name in point_mechanisms)


def run_sweep(geometries=None, *,
              pfails: tuple[float, ...] = DEFAULT_PFAILS,
              benchmarks: tuple[str, ...] = EVALUATED_BENCHMARKS,
              config: EstimatorConfig | None = None,
              on_cell=None,
              only_cells=None,
              probability: float = TARGET_EXCEEDANCE,
              pipeline_stats: PipelineStats | None = None) -> SweepResult:
    """Estimate the whole suite at every grid cell.

    ``config`` carries the non-swept parameters (timing model, solver
    mode, cache selector, worker width); its geometry and pfail are
    overridden per cell.  ``config.workers`` is the width of the one
    process pool every task of the grid shares.  ``on_cell`` is
    invoked as ``on_cell(cell, points, completed, total)`` for every
    finished cell, in completion order, so callers can stream the
    report.

    ``only_cells`` (a sequence of ``(mechanism | None, pfail | None)``
    filters, ``None`` wildcarding an axis) restricts the sweep to the
    matching (mechanism, pfail) cells: unmatched pfails leave the
    grid, unmatched mechanisms of surviving cells are neither
    estimated nor reported — but every selected point and Pareto front
    section is bit-identical to the full run's.

    A stage error aborts the sweep and propagates; a dead pool worker
    is recovered by the scheduler.  ``pipeline_stats`` (a
    :class:`~repro.pipeline.scheduler.PipelineStats`) receives the
    run's task counts, pool-recovery counters and work counters;
    ``SweepResult.solver_totals`` are its work counters.
    """
    if geometries is None:
        geometries = geometry_grid()
    if config is None:
        config = EstimatorConfig()
    if pipeline_stats is None:
        pipeline_stats = PipelineStats()
    geometries = tuple(dict.fromkeys(geometries))
    benchmarks = tuple(dict.fromkeys(benchmarks))
    selection = _selection(only_cells, tuple(pfails))
    cells = sweep_cells(geometries, tuple(selection))
    scheduler = PipelineScheduler(workers=config.workers)
    dag = EstimationDag(
        scheduler, {name: load(name).cfg for name in benchmarks},
        geometries,
        {pfail: _estimation_mechanisms(chosen)
         for pfail, chosen in selection.items()},
        config, probability=probability,
        stats=pipeline_stats)

    def cell_points(cell, *outputs):
        chosen = _estimation_mechanisms(selection[cell.pfail])
        pwcets = []
        for name, output in zip(benchmarks, outputs):
            rows = dag.rows(dag.cells_key(name, cell.geometry), output)
            pwcets.append({mechanism:
                           rows[(mechanism, cell.pfail)].pwcet(probability)
                           for mechanism in chosen})
        return _cell_points(cell, pwcets, selection[cell.pfail])

    cell_of = {}
    for cell in cells:
        # One inline sink per grid cell: its design points.
        cell_of[scheduler.add(
            f"sweep-cell:{cell.label}",
            lambda *outputs, cell=cell: cell_points(cell, *outputs),
            deps=tuple(dag.cells_key(name, cell.geometry)
                       for name in benchmarks),
            stage="sweep-cell")] = cell
    points_by_cell: dict[SweepCell, tuple[DesignPoint, ...]] = {}

    def on_task(key, value, *_):
        dag.record(key, value)
        cell = cell_of.get(key)
        if cell is None:
            return
        points_by_cell[cell] = value
        if on_cell is not None:
            on_cell(cell, value, len(points_by_cell), len(cells))

    scheduler.run(stats=pipeline_stats, on_task=on_task)
    # Deterministic assembly: grid order, regardless of completion order.
    return SweepResult(
        points=tuple(point for cell in cells
                     for point in points_by_cell[cell]),
        benchmarks=benchmarks,
        probability=probability,
        solver_totals=pipeline_stats.counters)
