"""Generated programs through the estimation DAG, against the simulator.

The production path — :class:`~repro.pipeline.stages.EstimationDag`'s
stacked classify, fused solve and cells stages — must bound every
concrete execution of every program, not only the suite's.  Hypothesis
generates the programs; each runs through the DAG at one stacked
line-size group of sweep-grid geometries, and the fault-free WCET and
Fault Miss Maps of its cell rows are checked against
:class:`~repro.sim.TraceExecutor` replays under sampled and
whole-set-faulty chips::

    cycles <= WCET_ff + memory_latency * sum_s FMM[s][f_s]

Tier-1 runs a handful of programs; ``--hypothesis-profile=soundness``
(registered in ``conftest.py``) runs the profile's budget.
"""

from __future__ import annotations

import random
import zlib

from hypothesis import HealthCheck, given, settings

from repro.cache import CacheGeometry, FaultMap
from repro.cfg import PathWalker
from repro.ipet import TimingModel
from repro.minic import compile_program
from repro.pipeline import (SUITE_MECHANISMS, EstimationDag,
                            PipelineScheduler)
from repro.pwcet import EstimatorConfig
from repro.reliability import mechanism_by_name
from repro.sim import TraceExecutor
from tests.strategies import programs

#: One line-size group of the sweep grid (stacked into one fixpoint
#: pair): different set counts and way counts.
GROUP = (CacheGeometry.from_size(512, 2, 16),
         CacheGeometry.from_size(1024, 4, 16),
         CacheGeometry.from_size(2048, 4, 16))
PFAIL = 1e-4
TIMING = TimingModel()
NAME = "generated"

_SOUNDNESS = settings.get_profile("soundness")
EXAMPLES = _SOUNDNESS.max_examples if settings.default == _SOUNDNESS else 10


def dag_rows(cfg) -> dict:
    """Every (mechanism, pfail) row of every geometry, from the DAG."""
    config = EstimatorConfig(timing=TIMING, cache="off")
    scheduler = PipelineScheduler(workers=1)
    dag = EstimationDag(scheduler, {NAME: cfg}, GROUP, (PFAIL,), config)
    outputs = scheduler.run(
        on_task=lambda key, value, *_: dag.record(key, value))
    return {geometry: dag.rows(dag.cells_key(NAME, geometry),
                               outputs[dag.cells_key(NAME, geometry)])
            for geometry in GROUP}


def fault_maps(geometry: CacheGeometry, reliable_ways: int,
               rng: random.Random) -> list[FaultMap]:
    """Sampled chips, then adversarial ones: one set with every
    (unhardened) way faulty, and every set so."""
    maps = [FaultMap.sample(geometry, pbf, rng,
                            reliable_ways=reliable_ways)
            for pbf in (0.1, 0.5, 0.9)]

    def whole(sets) -> FaultMap:
        return FaultMap(geometry, ((set_index, way) for set_index in sets
                                   for way in range(reliable_ways,
                                                    geometry.ways)))

    maps.append(whole((rng.randrange(geometry.sets),)))
    maps.append(whole(range(geometry.sets)))
    return maps


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_dag_bounds_dominate_the_simulator(program):
    cfg = compile_program(program).cfg
    rows = dag_rows(cfg)
    walker = PathWalker(cfg)
    for geometry in GROUP:
        for name in SUITE_MECHANISMS:
            mechanism = mechanism_by_name(name)
            row = rows[geometry][(name, PFAIL)]
            fmm = row.fmm
            # crc32, not hash(): the seed must not depend on
            # PYTHONHASHSEED, so a failure reproduces anywhere.
            rng = random.Random(zlib.crc32(
                f"{cfg.digest()}/{geometry}/{name}".encode()))
            reliable = 1 if name == "rw" else 0
            for trial, fault_map in enumerate(
                    fault_maps(geometry, reliable, rng)):
                walk = walker.walk(rng, maximize_iterations=trial % 2 == 0)
                outcome = TraceExecutor(geometry, TIMING, mechanism,
                                        fault_map).run(walk.addresses)
                bound = row.wcet_fault_free + TIMING.memory_cycles * sum(
                    fmm.misses(s, min(fault_map.faulty_ways_in_set(s),
                                      fmm.max_fault_count))
                    for s in range(geometry.sets))
                assert outcome.cycles <= bound, (
                    f"{geometry} {name}: simulated {outcome.cycles} > "
                    f"bound {bound} (profile "
                    f"{fault_map.fault_profile()})")
