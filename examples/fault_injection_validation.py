"""Validating the static bounds by Monte-Carlo fault injection.

For one benchmark, samples thousands of (chip, path) pairs and checks
that the deterministic bound  WCET_ff + 100 * sum_s FMM[s][f_s]  is
never exceeded by the simulated execution time — for all three
mechanisms — then reports how tight the bound was.

Run with:  python examples/fault_injection_validation.py [benchmark]
"""

import random
import sys

from repro import EstimatorConfig, FaultMap, PWCETEstimator, TimingModel
from repro.cfg import PathWalker, find_loops
from repro.reliability import MECHANISMS, ReliableWay
from repro.sim import TraceExecutor
from repro.suite import load


def main(benchmark: str = "crc", chips: int = 300) -> None:
    compiled = load(benchmark)
    config = EstimatorConfig(pfail=5e-4)  # elevated rate: more faults
    estimator = PWCETEstimator(compiled, config, name=benchmark)
    timing: TimingModel = config.timing
    geometry = config.geometry
    model = config.fault_model()
    walker = PathWalker(compiled.cfg, find_loops(compiled.cfg))
    wcet_ff = estimator.fault_free_wcet()
    print(f"benchmark {benchmark}: fault-free WCET {wcet_ff} cycles, "
          f"pbf = {model.pbf:.4f}")

    rng = random.Random(2016)
    for mechanism in MECHANISMS:
        fmm = estimator.fault_miss_map(mechanism)
        reliable = 1 if isinstance(mechanism, ReliableWay) else 0
        worst_ratio, violations = 0.0, 0
        for trial in range(chips):
            fault_map = FaultMap.sample(geometry, model.pbf, rng,
                                        reliable_ways=reliable)
            walk = walker.walk(rng, maximize_iterations=(trial % 2 == 0))
            outcome = TraceExecutor(geometry, timing, mechanism,
                                    fault_map).run(walk.addresses)
            penalty = sum(
                fmm.misses(s, min(fault_map.faulty_ways_in_set(s),
                                  fmm.max_fault_count))
                for s in range(geometry.sets))
            bound = wcet_ff + timing.memory_cycles * penalty
            if outcome.cycles > bound:
                violations += 1
            worst_ratio = max(worst_ratio, outcome.cycles / bound)
        status = "OK" if violations == 0 else f"{violations} VIOLATIONS"
        print(f"  {mechanism.name:>5s}: {chips} chips, bound {status}; "
              f"tightest observed ratio sim/bound = {worst_ratio:.3f}")


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["crc"]))
