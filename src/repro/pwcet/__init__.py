"""Probabilistic WCET machinery: distributions, exceedance, estimation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DiscreteDistribution": ".distribution",
    "ExceedanceCurve": ".exceedance",
    "EstimatorConfig": ".estimator",
    "PWCETEstimate": ".estimator",
    "PWCETEstimator": ".estimator",
})
