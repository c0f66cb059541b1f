"""Permanent-fault probability model and fault injection."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FaultProbabilityModel": ".model",
    "sample_fault_maps": ".injection",
})
