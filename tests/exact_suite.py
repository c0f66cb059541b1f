"""Slow tier: every default suite estimate against exact rationals.

Runs the suite at the default configuration (25 benchmarks x the
paper's three mechanisms), recomputes each penalty distribution in
``fractions.Fraction`` arithmetic (``tests/oracles.py``) and requires
the kernel's quantile to equal the exact one at all 16 levels 1e-1 ..
1e-16.  Each row's pipeline pWCET, which the cells stage read from a
distribution capped at the paper's 1e-15, must also equal ``wcet +
memory latency x exact quantile at 1e-15``.  It also prints the
smallest relative gap |P(X > v) - p| / p over support points ``v``
and levels ``p``: only a gap near float rounding could make the
kernel and the exact reference disagree.

pytest does not collect this module (no ``test_`` prefix).  From the
repository root:

    PYTHONPATH=src python -m tests.exact_suite
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.experiments.runner import run_suite
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.reliability import mechanism_by_name
from tests.oracles import (exact_penalty_distribution, exact_quantiles,
                           exact_tails)

LEVELS = tuple(10.0 ** -exponent for exponent in range(1, 17))


def main() -> int:
    start = time.perf_counter()
    checked, mismatches = 0, []
    smallest = (np.inf, "")
    for result in run_suite(EstimatorConfig(cache="off")):
        for name, estimate in result.estimates.items():
            fmm = estimate.fmm
            exact = exact_penalty_distribution(
                fmm, mechanism_by_name(name), estimate.fault_model,
                fmm.geometry.sets)
            # The row's stored pWCET, read by the cells stage from a
            # distribution capped at 1e-15 (penalty_misses below
            # recomputes the full one).
            assert estimate.known_pwcet is not None, result.name
            pipeline = estimate.pwcet()
            [quantile] = exact_quantiles(exact, (
                TARGET_EXCEEDANCE - estimate.exceedance_correction,))
            expected = (estimate.wcet_fault_free
                        + quantile * estimate.timing.memory_cycles)
            if pipeline != expected:
                mismatches.append(f"{result.name}/{name}: pipeline "
                                  f"pWCET {pipeline}, exact {expected}")
            kernel = [estimate.penalty_misses.quantile_exceedance(level)
                      for level in LEVELS]
            reference = exact_quantiles(exact, LEVELS)
            checked += 1
            if kernel != reference:
                mismatches.append(f"{result.name}/{name}: kernel "
                                  f"{kernel}, exact {reference}")
            tails = np.array([float(tail)
                              for _, tail in exact_tails(exact)])
            for level in LEVELS:
                gap = float(np.min(np.abs(tails - level)) / level)
                if gap < smallest[0]:
                    smallest = (gap, f"{result.name}/{name} at {level:g}")
    print(f"{checked} estimates x {len(LEVELS)} levels and "
          f"{checked} pipeline pWCETs: {len(mismatches)} mismatches")
    print(f"smallest |ccdf - p| / p at a support point: "
          f"{smallest[0]:.3e} ({smallest[1]})")
    print(f"{time.perf_counter() - start:.1f} s")
    for line in mismatches:
        print(line, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
