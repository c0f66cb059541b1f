"""Static instruction-cache analysis (abstract interpretation).

This package re-implements the cache analysis the paper builds on
(Theiling/Ferdinand-style abstract interpretation, used by Heptane):

* **Must** analysis — upper bounds on LRU ages; a reference whose block
  is guaranteed cached is *always-hit*;
* **May** analysis — lower bounds on LRU ages; a reference whose block
  cannot be cached is *always-miss*;
* **Persistence** — per-loop conflict counting; a reference whose
  conflict set fits in the set's (possibly degraded) associativity is
  *first-miss* in the outermost loop where it fits.

All analyses are parameterised by the per-set associativity, which is
how faulty ways enter the picture: a set with ``f`` faulty blocks is a
set analysed at associativity ``W - f``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Chmc": ".chmc",
    "Classification": ".chmc",
    "GLOBAL_SCOPE": ".chmc",
    "Reference": ".references",
    "MustAnalysis": ".must",
    "MayAnalysis": ".may",
    "PersistenceAnalysis": ".persistence",
    "AnalysisStats": ".classify",
    "CacheAnalysis": ".classify",
    "ClassificationTable": ".classify",
    "ClassificationStore": ".store",
    "AgeVectorEngine": ".vectorized",
})
