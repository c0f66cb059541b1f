"""The pWCET/cost trade-off and the refined SRB (library extensions).

The paper motivates RW vs SRB as a cost/benefit choice and leaves two
things as future work: the die-area/power analysis, and a more precise
SRB analysis.  This example shows both extensions:

1. gain per benchmark against hardened-cell area overhead (the
   designer's view);
2. the refined SRB analysis ('srb+'), sound above its probability
   floor, recovering most of the RW's benefit at SRB cost.

Run with:  python examples/reliability_cost_tradeoff.py
"""

from repro.experiments import run_suite
from repro.hwcost.tradeoff import format_tradeoff, tradeoff_points
from repro.pwcet import EstimatorConfig
from repro.reliability.refined_srb import excluded_probability

BENCHMARKS = ("fibcall", "bsort100", "ud", "adpcm")


def main() -> None:
    print("pWCET gain vs hardware cost at 1e-15 "
          "(schmitt-trigger hardened cells):\n")
    print(format_tradeoff(tradeoff_points(run_suite(benchmarks=BENCHMARKS))))

    probability = 1e-9
    config = EstimatorConfig()
    print(f"\nrefined SRB analysis at exceedance {probability:.0e} "
          "(same hardware as the SRB):\n")
    print(f"{'benchmark':12s} {'srb':>9s} {'srb+':>9s} {'rw':>9s}")
    mechanisms = ("srb", "srb+", "rw")
    for result in run_suite(config, target_probability=probability,
                            benchmarks=BENCHMARKS, mechanisms=mechanisms):
        srb, refined, rw = map(result.pwcet, mechanisms)
        print(f"{result.name:12s} {srb:9d} {refined:9d} {rw:9d}")
    floor = excluded_probability(config.fault_model(), 16)
    print(f"\nrefinement floor P(>=2 sets entirely faulty) = {floor:.2e}:"
          f"\nthe refined analysis cannot certify the 1e-15 aerospace"
          f"\ntarget at pfail=1e-4 — the trade-off the paper's future"
          f"\nwork would have to negotiate.")


if __name__ == "__main__":
    main()
