"""ABL-SOLVER — exact ILP vs LP relaxation for the IPET/FMM programs.

The paper solves its ILPs with CPLEX; we use HiGHS through scipy.  For
a *maximisation*, the LP relaxation is a sound (>=) but possibly looser
bound, and solves faster — a practical trade-off for design-space
exploration.  This harness times both modes and quantifies the bound
gap over a benchmark subset.  End-to-end perf lives in ``perfbench/``.
"""

from repro.experiments.ablations import solver_comparison
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.suite import load

SUBSET = ("fibcall", "ud", "adpcm")


def _pipeline(relaxed: bool, name: str = "ud") -> int:
    # cache="off": this harness times the *solver*, so the persistent
    # cross-run store must not answer for it.
    config = EstimatorConfig(relaxed=relaxed, cache="off")
    estimator = PWCETEstimator(load(name), config, name=name)
    return estimator.estimate("none").pwcet()


def test_exact_ilp_pipeline(benchmark):
    value = benchmark.pedantic(lambda: _pipeline(False), rounds=3,
                               iterations=1)
    assert value > 0


def test_relaxed_lp_pipeline(benchmark):
    value = benchmark.pedantic(lambda: _pipeline(True), rounds=3,
                               iterations=1)
    assert value > 0


def test_relaxation_gap_table(benchmark, emit):
    pairs = benchmark.pedantic(
        lambda: solver_comparison(benchmarks=SUBSET),
        rounds=1, iterations=1)
    lines = [f"{'benchmark':>10s} {'ILP none':>12s} {'LP none':>12s} "
             f"{'gap':>7s}"]
    for exact, relaxed in pairs:
        gap = (relaxed.pwcet_none - exact.pwcet_none) / exact.pwcet_none
        lines.append(f"{exact.benchmark:>10s} {exact.pwcet_none:12d} "
                     f"{relaxed.pwcet_none:12d} {gap:7.2%}")
        # Soundness: the relaxation never under-estimates.
        assert relaxed.pwcet_none >= exact.pwcet_none
        assert relaxed.pwcet_srb >= exact.pwcet_srb
        assert relaxed.pwcet_rw >= exact.pwcet_rw
    emit("ablation_solver_relaxation", "\n".join(lines))
