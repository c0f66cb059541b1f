"""The one-shot reproduction report.

Collects every regenerated artefact — Figures 1/3/4, the gain
statistics, and the extension tables (refined SRB, hardware cost) —
into a single markdown document, used by ``python -m repro report``
and by the documentation pipeline.
"""

from __future__ import annotations

from repro.experiments.fig1 import compute_fig1, format_fig1
from repro.experiments.fig3 import format_fig3
from repro.experiments.fig4 import fig4_rows, format_fig4
from repro.hwcost.tradeoff import format_tradeoff, tradeoff_points
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.reliability.refined_srb import excluded_probability
from repro.suite import load

#: Benchmarks used for the extension sections (kept small for speed).
EXTENSION_SUBSET = ("fibcall", "bsort100", "ud", "adpcm")


def refined_srb_section(config: EstimatorConfig,
                        probability: float = 1e-9) -> str:
    """The refined-SRB comparison table (extension EXT-SRB+)."""
    lines = [f"pWCET at exceedance {probability:.0e}:",
             f"{'benchmark':12s} {'srb':>10s} {'srb+':>10s} {'rw':>10s}"]
    for name in EXTENSION_SUBSET:
        estimator = PWCETEstimator(load(name), config, name=name)
        lines.append(
            f"{name:12s} "
            f"{estimator.estimate('srb').pwcet(probability):10d} "
            f"{estimator.estimate('srb+').pwcet(probability):10d} "
            f"{estimator.estimate('rw').pwcet(probability):10d}")
    floor = excluded_probability(config.fault_model(), config.geometry.sets)
    lines.append(f"(refinement floor: P(>=2 sets entirely faulty) "
                 f"= {floor:.2e})")
    return "\n".join(lines)


def sweep_section(config: EstimatorConfig,
                  benchmarks: tuple[str, ...] = EXTENSION_SUBSET) -> str:
    """Design-space sweep summary: Pareto fronts over a compact grid.

    The report keeps the grid to one line-size axis (8 geometries) and
    the extension subset so ``repro report`` stays interactive; the
    full 16-geometry grid over all 25 benchmarks is ``repro sweep``'s
    job.  Warm solve-cache entries make reruns of either near-free.
    """
    from repro.sweep import format_pareto_fronts, geometry_grid, run_sweep

    result = run_sweep(geometry_grid(lines=(16,)), benchmarks=benchmarks,
                       config=config)
    totals = result.solver_totals
    reuse = (f"(solver: {totals['ilp_solved']:.0f} ILPs solved, "
             f"{totals['store_hits']:.0f} from the persistent "
             f"cache)")
    return format_pareto_fronts(result) + "\n" + reuse


def full_report(config: EstimatorConfig | None = None) -> str:
    """Every artefact, as one markdown document (runs the whole suite)."""
    if config is None:
        config = EstimatorConfig()
    sections = [
        "# Reproduction report — Hardy, Puaut & Sazeides, DATE 2016",
        "",
        f"Configuration: {config.geometry}, pfail = {config.pfail:g}, "
        f"hit {config.timing.hit_cycles} cyc / "
        f"memory {config.timing.memory_cycles} cyc.",
        "",
        "## Figure 1 — fault miss map walkthrough",
        "```", format_fig1(compute_fig1(config.pfail)), "```",
        "",
        "## Figure 3 — adpcm exceedance curves",
        "```", format_fig3(config=config), "```",
        "",
        "## Figure 4 — 25-benchmark survey",
        "```", format_fig4(fig4_rows(config)), "```",
        "",
        "## Extension: refined SRB analysis (paper future work)",
        "```", refined_srb_section(config), "```",
        "",
        "## Extension: pWCET/cost trade-off (paper future work)",
        "```",
        format_tradeoff(tradeoff_points(EXTENSION_SUBSET, config)),
        "```",
        "",
        "## Extension: multi-geometry design-space sweep",
        "```", sweep_section(config), "```",
    ]
    return "\n".join(sections)
