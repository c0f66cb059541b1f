"""Cache reliability mechanisms (paper Section III)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "MECHANISMS": ".mechanism",
    "NoProtection": ".mechanism",
    "ReliabilityMechanism": ".mechanism",
    "ReliableWay": ".mechanism",
    "SharedReliableBuffer": ".mechanism",
    "mechanism_by_name": ".mechanism",
    "srb_always_hit_references": ".srb_analysis",
})
