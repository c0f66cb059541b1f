"""Fault Miss Map (FMM) computation — paper §II-C and Figure 1.a."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FaultMissMap": ".fault_miss_map",
    "compute_fault_miss_map": ".compute",
})
