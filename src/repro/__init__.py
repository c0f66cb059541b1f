"""repro — fault-aware probabilistic WCET estimation.

A from-scratch reproduction of *"Probabilistic WCET estimation in
presence of hardware for mitigating the impact of permanent faults"*
(Hardy, Puaut, Sazeides — DATE 2016), including every substrate the
paper depends on: a MIPS-like toolchain, abstract-interpretation cache
analysis, IPET via integer linear programming, the fault-miss-map
machinery of Hardy & Puaut 2015, and the RW / SRB reliability
mechanisms with their analyses.

Quickstart::

    from repro import (Program, Function, Compute, Loop, compile_program,
                       PWCETEstimator)

    program = Program([Function("main", [Loop(100, [Compute(24)])])])
    estimator = PWCETEstimator(compile_program(program))
    estimate = estimator.estimate("rw")
    print(estimate.pwcet(1e-15))
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CacheAnalysis": ".analysis.classify",
    "Chmc": ".analysis.chmc",
    "Classification": ".analysis.chmc",
    "CacheGeometry": ".cache.geometry",
    "FaultMap": ".cache.faultmap",
    "LRUCache": ".cache.lru",
    "CFG": ".cfg.graph",
    "PathWalker": ".cfg.walker",
    "find_loops": ".cfg.loops",
    "FaultProbabilityModel": ".faults.model",
    "FaultMissMap": ".fmm.fault_miss_map",
    "compute_fault_miss_map": ".fmm.compute",
    "TimingModel": ".ipet.wcet",
    "compute_wcet": ".ipet.wcet",
    "Call": ".minic.ast",
    "CompiledProgram": ".minic.link",
    "Compute": ".minic.ast",
    "Function": ".minic.ast",
    "If": ".minic.ast",
    "Loop": ".minic.ast",
    "Program": ".minic.ast",
    "compile_program": ".minic.link",
    "DiscreteDistribution": ".pwcet.distribution",
    "EstimatorConfig": ".pwcet.estimator",
    "ExceedanceCurve": ".pwcet.exceedance",
    "PWCETEstimate": ".pwcet.estimator",
    "PWCETEstimator": ".pwcet.estimator",
    "TARGET_EXCEEDANCE": ".pwcet.estimator",
    "MECHANISMS": ".reliability.mechanism",
    "NoProtection": ".reliability.mechanism",
    "ReliableWay": ".reliability.mechanism",
    "SharedReliableBuffer": ".reliability.mechanism",
    "mechanism_by_name": ".reliability.mechanism",
    "SolvePlanner": ".solve.planner",
    "SolveRequest": ".solve.request",
    "SolveStats": ".solve.planner",
    "SolveStore": ".solve.store",
    "SweepResult": ".sweep.service",
    "pareto_front": ".sweep.service",
    "run_sweep": ".sweep.service",
})

__version__ = "1.0.0"
__all__.append("__version__")
