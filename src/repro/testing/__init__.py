"""Deterministic test harnesses for the pipeline substrate.

``faultinject``
    The chaos-injection harness: a declarative fault plan
    (``REPRO_FAULT_PLAN``) with hooks threaded through the pool entry
    point, the persistent stores and the solve backend, so worker
    crashes, writers killed mid-transaction and solver hangs are
    reproducible in unit tests and CI instead of theorized.
"""

from repro.testing.faultinject import (FaultClause, PLAN_ENV, STATE_ENV,
                                       active_plan, fire, parse_plan,
                                       solve_hook, worker_hook)

__all__ = [
    "FaultClause",
    "PLAN_ENV",
    "STATE_ENV",
    "active_plan",
    "fire",
    "parse_plan",
    "solve_hook",
    "worker_hook",
]
