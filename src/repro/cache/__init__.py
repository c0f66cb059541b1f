"""Instruction-cache model: geometry, concrete LRU simulation, faults.

The paper's architecture is a single-level set-associative instruction
cache with LRU replacement, defined by a number of sets ``S``, ways
``W`` and a block size ``K`` (the paper states K in bits; here we use
bytes and convert where the fault model needs bits).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CacheGeometry": ".geometry",
    "LRUCache": ".lru",
    "LRUSet": ".lru",
    "FaultMap": ".faultmap",
})
