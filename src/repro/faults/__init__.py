"""Permanent-fault probability model."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FaultProbabilityModel": ".model",
})
