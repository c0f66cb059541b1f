"""Figure 3 — complementary cumulative distributions for adpcm.

The paper plots, for benchmark ``adpcm`` at ``pfail = 1e-4``, the
exceedance function of the pWCET under no protection, the SRB and the
RW.  Both functions read one :func:`~repro.experiments.runner.run_suite`
result: :func:`exceedance_curves` returns the three curves;
:func:`format_fig3` renders them as aligned series (one row per
support point, one column per mechanism) plus the pWCET read-outs at
the paper's 1e-15 target.
"""

from __future__ import annotations

from repro.experiments.runner import BenchmarkResult
from repro.pwcet import ExceedanceCurve
from repro.pwcet.estimator import TARGET_EXCEEDANCE

#: The paper's Figure 3 benchmark.
FIG3_BENCHMARK = "adpcm"
#: Mechanisms in the paper's plotting order.
FIG3_MECHANISMS = ("none", "srb", "rw")


def exceedance_curves(result: BenchmarkResult
                      ) -> dict[str, ExceedanceCurve]:
    """The three exceedance curves of Figure 3 for one suite result."""
    return {mechanism: result.estimates[mechanism].exceedance_curve()
            for mechanism in FIG3_MECHANISMS}


def format_fig3(result: BenchmarkResult, *,
                probabilities: tuple[float, ...] = (
                    1e-3, 1e-6, 1e-9, 1e-12, TARGET_EXCEEDANCE)) -> str:
    """Printable Figure 3: pWCET at decreasing exceedance levels."""
    curves = exceedance_curves(result)
    pfail = result.estimates["none"].fault_model.pfail
    lines = [
        f"Figure 3 -- exceedance curves, benchmark {result.name!r} "
        f"(pfail = {pfail:g})",
        f"fault-free WCET = {result.wcet_fault_free} cycles",
        "",
        f"{'P(WCET > x)':>12s} | " + " | ".join(
            f"{name:>10s}" for name in FIG3_MECHANISMS),
    ]
    lines.append("-" * len(lines[-1]))
    for probability in probabilities:
        cells = " | ".join(
            f"{curves[name].pwcet(probability):10d}"
            for name in FIG3_MECHANISMS)
        lines.append(f"{probability:12.0e} | {cells}")
    lines.append("")
    lines.append("curve support sizes: " + ", ".join(
        f"{name}={len(curves[name])}" for name in FIG3_MECHANISMS))
    return "\n".join(lines)
