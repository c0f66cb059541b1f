"""Figure 3 reproduction: exceedance curves for adpcm.

Prints the complementary cumulative distribution of the pWCET of the
``adpcm`` benchmark for the three protection levels, like the paper's
Figure 3, plus an ASCII rendering of the curves.

Run with:  python examples/adpcm_exceedance.py
"""

import math

from repro.experiments import run_suite
from repro.experiments.fig3 import (FIG3_BENCHMARK, exceedance_curves,
                                    format_fig3)


def ascii_plot(curves, width: int = 68, height: int = 16) -> str:
    """Log-probability vs pWCET, one character per curve point."""
    symbols = {"none": "n", "srb": "s", "rw": "r"}
    low = min(curve.values[0] for curve in curves.values())
    high = max(curve.values[-1] for curve in curves.values())
    span = max(high - low, 1)
    grid = [[" "] * width for _ in range(height)]
    for name, curve in curves.items():
        for value, probability in curve.rows():
            if probability <= 0:
                continue
            x = min(int((value - low) / span * (width - 1)), width - 1)
            log_p = max(-15.0, math.log10(probability))
            y = min(int(-log_p / 15.0 * (height - 1)), height - 1)
            grid[y][x] = symbols[name]
    lines = [f"1e-{row:02d} |" + "".join(grid[row]) for row in range(height)]
    lines.append("      +" + "-" * width)
    lines.append(f"       {low} .. {high} cycles   "
                 "(n=no protection, s=SRB, r=RW)")
    return "\n".join(lines)


def main() -> None:
    (result,) = run_suite(benchmarks=(FIG3_BENCHMARK,))
    print(format_fig3(result))
    print()
    print(ascii_plot(exceedance_curves(result)))


if __name__ == "__main__":
    main()
