"""Cache reliability mechanisms (paper Section III)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "MECHANISMS": ".mechanism",
    "FaultPmfCacheStats": ".mechanism",
    "NoProtection": ".mechanism",
    "ReliabilityMechanism": ".mechanism",
    "ReliableWay": ".mechanism",
    "SharedReliableBuffer": ".mechanism",
    "fault_pmf_cache_stats": ".mechanism",
    "mechanism_by_name": ".mechanism",
    "reset_fault_pmf_cache": ".mechanism",
    "srb_always_hit_references": ".srb_analysis",
})
