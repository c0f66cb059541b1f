"""IPET: WCET computation by Implicit Path Enumeration (Li & Malik).

The execution-count space of a program is encoded as an integer linear
program — flow conservation per basic block, one unit of flow from
entry to exit, loop-bound inequalities — and the WCET is the maximum of
a linear time objective over that polytope.  The same polytope, with a
different objective, bounds the number of fault-induced misses for the
Fault Miss Map (:mod:`repro.fmm`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "LinearProgram": ".ilp",
    "Solution": ".ilp",
    "FlowModel": ".model",
    "enumerate_paths": ".paths",
    "TimingModel": ".wcet",
    "WCETResult": ".wcet",
    "compute_wcet": ".wcet",
})
