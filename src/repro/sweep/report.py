"""Rendering sweep results: the grid table and the Pareto fronts."""

from __future__ import annotations

from repro.sweep.service import DesignPoint, SweepResult, pareto_front

#: Mechanisms that cost extra silicon; ``none`` is the per-cell
#: reference (gain 0 by construction) and stays out of the fronts.
FRONT_MECHANISMS = ("srb", "rw")


def _point_row(point: DesignPoint) -> str:
    geometry = point.geometry
    return (f"{geometry.total_bytes:6d}B {geometry.sets:4d}x"
            f"{geometry.ways}x{geometry.block_bytes:<3d} "
            f"{point.pfail:8.0e} {point.mechanism:>5s} "
            f"{point.mean_pwcet:12.0f} {point.mean_gain:7.1%} "
            f"{point.area_cells:10.0f} {point.area_overhead:7.2%}")


_HEADER = (f"{'size':>7s} {'SxWxB':>10s} {'pfail':>8s} {'mech':>5s} "
           f"{'mean pWCET':>12s} {'gain':>7s} {'cells':>10s} "
           f"{'area+':>7s}")


def format_sweep_table(result: SweepResult) -> str:
    """The full grid, one row per (cell, mechanism)."""
    lines = [
        f"Sweep over {len(result.cells())} cells x "
        f"{len(result.benchmarks)} benchmarks "
        f"(pWCET at {result.probability:.0e})",
        _HEADER,
        "-" * len(_HEADER),
    ]
    lines.extend(_point_row(point) for point in result.points)
    return "\n".join(lines)


def format_pareto_fronts(result: SweepResult) -> str:
    """Pareto fronts of pWCET gain vs hardware cost.

    One front per (mechanism, pfail): the geometry is the design
    choice being traded off, while the cell failure rate is an
    environment assumption — mixing pfails in one front would let a
    pessimistic-environment point "dominate" an optimistic one.
    """
    pfails = sorted({point.pfail for point in result.points})
    sections = []
    for mechanism in FRONT_MECHANISMS:
        for pfail in pfails:
            candidates = tuple(point
                               for point in result.of_mechanism(mechanism)
                               if point.pfail == pfail)
            front = pareto_front(candidates)
            lines = [f"Pareto front — {mechanism} at pfail={pfail:g} "
                     f"(gain vs cell budget, {len(front)} of "
                     f"{len(candidates)} points)",
                     _HEADER,
                     "-" * len(_HEADER)]
            lines.extend(_point_row(point) for point in front)
            sections.append("\n".join(lines))
    return "\n\n".join(sections)


def format_sweep_report(result: SweepResult) -> str:
    """Grid table + Pareto fronts + solver/analysis-reuse summary."""
    totals = result.solver_totals
    # Every backend-bound solve: ILPs, LP relaxations (--relaxed) and
    # the ones the persistent store answered.
    solves = totals["ilp_solved"] + totals["lp_solved"] + totals["store_hits"]
    hit_rate = totals["store_hits"] / solves if solves else 0.0
    solver = (
        f"solver: {totals['ilp_solved']:.0f} ILPs solved, "
        f"{totals['store_hits']:.0f} served by the persistent "
        f"cache (hit rate {hit_rate:.1%}), "
        f"{totals['dedup_hits']:.0f} in-process dedup hits, "
        f"{totals['pruned_empty']:.0f} cells pruned (empty)")
    # The analysis line reports tables built and store hits rather
    # than physical fixpoints; the stacked kernel's fixpoint count is
    # ``fixpoints_run`` in the run's counters.
    analysis = (
        f"analysis: {totals['tables_built']:.0f} classification "
        f"tables built, {totals['classify_store_hits']:.0f} "
        f"served by the persistent cache")
    summary = solver + "\n" + analysis
    if totals["cells_from_store"] > 0:
        # Present only when the plan pass served finished cells from
        # the store: a cold run's report has no cells line.
        summary += (f"\ncells: {totals['cells_from_store']:.0f} "
                    f"(mechanism, pfail) cells served by the persistent "
                    f"cell store")
    if totals["dist_batched_rows"] > 0:
        # Same presence rule: the line only appears when the batched
        # distribution kernel actually computed sibling pfail rows.
        summary += (f"\ndistribution: {totals['dist_batched_rows']:.0f} "
                    f"sibling pfail rows computed by the batched kernel")
    if totals["classify_batched_rows"] > 0:
        # Presence-gated like the distribution line: only when the
        # stacked classification kernel actually classified sibling
        # geometries.
        summary += (f"\nclassification: "
                    f"{totals['classify_batched_rows']:.0f} sibling "
                    f"geometries classified by the stacked kernel in "
                    f"{totals['geometry_groups']:.0f} batched "
                    f"line-size group runs")
    return "\n\n".join([format_sweep_table(result),
                        format_pareto_fronts(result), summary])
