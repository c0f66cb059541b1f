"""Deterministic test harnesses for the pipeline substrate.

``faultinject``
    The chaos-injection harness: a declarative fault plan
    (``REPRO_FAULT_PLAN``) with hooks threaded through the pool entry
    point, the persistent stores and the solve backend, so worker
    crashes, writers killed mid-transaction and solver failures are
    reproducible in unit tests and CI instead of theorized.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FaultClause": ".faultinject",
    "PLAN_ENV": ".faultinject",
    "STATE_ENV": ".faultinject",
    "active_plan": ".faultinject",
    "fire": ".faultinject",
    "parse_plan": ".faultinject",
    "solve_hook": ".faultinject",
    "worker_hook": ".faultinject",
})
