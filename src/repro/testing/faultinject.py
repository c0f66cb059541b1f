"""Deterministic fault-injection: the ``REPRO_FAULT_PLAN`` harness.

The scheduler (:mod:`repro.pipeline.scheduler`) claims the pipeline
survives killed workers and writers killed mid-transaction, and that a
failing stage aborts the run.  This module makes those faults
*reproducible*: a declarative plan in the ``REPRO_FAULT_PLAN``
environment variable arms injection hooks threaded through the pool
entry point (:func:`~repro.pipeline.scheduler._run_pool_task`), the
persistent stores (:meth:`~repro.solve.store.SqliteStore._put` /
``_get``) and the solve backend
(:meth:`~repro.solve.backend.HighsBackend.solve`), so CI can diff a
chaos run byte-for-byte against an undisturbed golden.

Plan grammar
------------

::

    plan   := clause (";" clause)*
    clause := site ":" action "@" target ["#" ordinal]

Sites and their actions:

``worker``
    Fires inside a pool worker before the stage body runs; ``target``
    is the stage function name (``solve_stage`` or ``cell_stage``)
    or ``*``.  Action: ``kill`` (SIGKILL the worker — the parent
    sees ``BrokenProcessPool``, rebuilds the pool and resubmits).

``store``
    Fires inside :class:`~repro.solve.store.SqliteStore`; ``target``
    is the schema directory name (``v4``, ``classify-v3``,
    ``cells-v6``) or ``*``.  Actions: ``kill`` (a writing pool worker
    is SIGKILL'd inside its open write transaction, after the insert
    but before the commit — the rows must never appear; writes of the
    driving process never match), ``read_error`` (the lookup's
    ``SELECT`` raises, so the read is a miss).

``solve``
    Fires inside :meth:`HighsBackend.solve`; ``target`` is the
    program snapshot name (``crc``, ``prime``, ...) or ``*``.
    Action: ``fail`` (raise :class:`~repro.errors.SolverError`, which
    aborts the run).

``#ordinal`` arms the clause for exactly the n-th (1-based) matching
invocation; without it the clause fires every time.  Ordinals are
counted per clause.  By default counters are per-process — pool
workers are forked with the parent's (zero) counts, so ``#2`` means
"the second matching call in *each* worker".  Point
``REPRO_FAULT_STATE`` at a directory to count globally across
processes (flock-serialised counter files): ``#2`` then means "the
second matching call anywhere in the run", which is what recovery
tests want (inject once, observe the resubmitted task succeed).

Example::

    worker:kill@cell_stage#2;store:kill@cells-v6#1;solve:fail@ipet:crc
"""

from __future__ import annotations

import fcntl
import os
import re
import signal
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, SolverError

#: Environment variable holding the fault plan (empty/unset: no faults).
PLAN_ENV = "REPRO_FAULT_PLAN"
#: Optional directory for cross-process ordinal counters.
STATE_ENV = "REPRO_FAULT_STATE"

#: Legal actions per site.
_ACTIONS = {
    "worker": ("kill",),
    "store": ("kill", "read_error"),
    "solve": ("fail",),
}

_CLAUSE_RE = re.compile(
    r"^(?P<site>[a-z]+):(?P<action>[a-z_]+)"
    r"@(?P<target>[^#;@\s]+)"
    r"(?:#(?P<ordinal>[0-9]+))?$")


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault plan."""

    #: Position in the plan — keys the clause's ordinal counter.
    index: int
    site: str
    action: str
    target: str
    #: 1-based matching invocation to fire at; ``None`` fires always.
    ordinal: int | None


def parse_plan(text: str) -> tuple[FaultClause, ...]:
    """Parse a plan string; raises ``ConfigurationError`` on nonsense.

    A malformed plan must fail loudly at the first hook, not silently
    inject nothing — a chaos CI job with a typo'd plan would otherwise
    green-light an untested recovery path.
    """
    clauses = []
    for index, raw in enumerate(part.strip()
                                for part in text.split(";")
                                if part.strip()):
        match = _CLAUSE_RE.match(raw)
        if match is None:
            raise ConfigurationError(
                f"malformed fault clause {raw!r} in {PLAN_ENV} "
                f"(expected site:action@target[#ordinal])")
        site, action = match["site"], match["action"]
        if site not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault site {site!r} in clause {raw!r} "
                f"(one of {sorted(_ACTIONS)})")
        if action not in _ACTIONS[site]:
            raise ConfigurationError(
                f"unknown action {action!r} for site {site!r} in "
                f"clause {raw!r} (one of {sorted(_ACTIONS[site])})")
        ordinal = int(match["ordinal"]) if match["ordinal"] else None
        if ordinal is not None and ordinal < 1:
            raise ConfigurationError(
                f"ordinal must be >= 1 in clause {raw!r}")
        clauses.append(FaultClause(index=index, site=site, action=action,
                                   target=match["target"],
                                   ordinal=ordinal))
    return tuple(clauses)


#: Memoised (plan text, parsed clauses); re-parsed when the env
#: variable changes so tests can monkeypatch plans freely.
_PLAN_MEMO: tuple[str, tuple[FaultClause, ...]] | None = None
#: Per-process ordinal counters, keyed by clause index (used when
#: ``REPRO_FAULT_STATE`` is unset).
_LOCAL_COUNTS: dict[int, int] = {}


def active_plan() -> tuple[FaultClause, ...]:
    """The clauses of the current ``REPRO_FAULT_PLAN`` (memoised)."""
    global _PLAN_MEMO
    text = os.environ.get(PLAN_ENV, "")
    if _PLAN_MEMO is None or _PLAN_MEMO[0] != text:
        _PLAN_MEMO = (text, parse_plan(text) if text else ())
        _LOCAL_COUNTS.clear()
    return _PLAN_MEMO[1]


def _next_ordinal(clause: FaultClause) -> int:
    """Advance and return the clause's 1-based invocation counter."""
    state_dir = os.environ.get(STATE_ENV)
    if not state_dir:
        count = _LOCAL_COUNTS.get(clause.index, 0) + 1
        _LOCAL_COUNTS[clause.index] = count
        return count
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"clause-{clause.index}.count")
    handle = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        # One byte per invocation; the flock serialises the
        # read-size/append pair so concurrent workers draw distinct
        # ordinals.
        fcntl.flock(handle, fcntl.LOCK_EX)
        count = os.fstat(handle).st_size + 1
        os.write(handle, b".")
        return count
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)
        os.close(handle)


def fire(site: str, target: str, *,
         actions: Sequence[str] | None = None) -> FaultClause | None:
    """The armed clause matching this invocation, if any.

    Every matching clause's ordinal counter advances (so sibling
    clauses on the same site/target count the same invocation stream);
    the first armed one is returned.  ``actions`` restricts matching
    to the hook's supported actions — an append hook must not consume
    ordinals of a read-side clause.
    """
    plan = active_plan()
    if not plan:
        return None
    armed = None
    for clause in plan:
        if clause.site != site:
            continue
        if actions is not None and clause.action not in actions:
            continue
        if clause.target not in ("*", target):
            continue
        count = _next_ordinal(clause)
        if armed is None and (clause.ordinal is None
                              or clause.ordinal == count):
            armed = clause
    return armed


def worker_hook(stage: str) -> None:
    """Injection point at the top of the pool-task entry point."""
    if fire("worker", stage) is not None:
        os.kill(os.getpid(), signal.SIGKILL)


def solve_hook(name: str) -> None:
    """Injection point inside ``HighsBackend.solve``."""
    if fire("solve", name) is not None:
        raise SolverError(f"injected solver fault ({name})")
