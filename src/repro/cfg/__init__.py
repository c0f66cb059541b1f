"""Control-flow graphs and loop structure.

The static analyses operate on a program-level CFG obtained by
*virtual inlining*: every function body is duplicated per call context
(so the analysis is context sensitive) while instruction addresses are
shared (so the cache sees one copy of the code, as in the real binary).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BasicBlock": ".basic_block",
    "CFG": ".graph",
    "Edge": ".graph",
    "Loop": ".loops",
    "LoopForest": ".loops",
    "compute_dominators": ".loops",
    "find_loops": ".loops",
    "PathWalker": ".walker",
    "WalkResult": ".walker",
})
