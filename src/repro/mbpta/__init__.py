"""Measurement-based probabilistic timing analysis (MBPTA) baseline.

The paper contrasts its *static* probabilistic method (SPTA) with the
measurement-based family of Slijepcevic et al. [7].  This package
implements that comparator: collect execution-time samples over random
fault maps and paths, fit an extreme-value model with scipy, and read
the pWCET off the fitted tail.  Unlike SPTA it carries no guarantee of
having seen the worst path — which is exactly the comparison point
``examples/mbpta_comparison.py`` prints.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BlockMaximaFit": ".evt",
    "PeaksOverThresholdFit": ".evt",
    "fit_block_maxima": ".evt",
    "fit_peaks_over_threshold": ".evt",
    "ExecutionTimeSampler": ".sampler",
    "MBPTAEstimator": ".mbpta",
    "MBPTAResult": ".mbpta",
})
