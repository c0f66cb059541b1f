"""Retry, timeout and failure-classification policy for the pipeline.

The paper computes safe bounds *in the presence of faults*; this
module applies the same discipline to the pipeline's own runtime.
Failures are split along pandaop's taxonomy (PAPERS.md) into

*transient* faults of the execution substrate — a killed or broken
pool worker (``BrokenProcessPool``), a stage that overran its timeout
budget, a torn IPC pipe — which are worth retrying: the pool is
rebuilt and every in-flight task resubmitted; and

*permanent* faults raised deterministically by the stage body itself
(:class:`~repro.errors.SolverError`, bad input): the pipeline is a
deterministic function of content-addressed inputs, so rerunning
reproduces them.  After ``max_attempts`` the task is *quarantined* —
recorded as a :class:`TaskFailure` — and only its dependent DAG
subtree is marked failed (``cascaded``); independent subtrees run to
completion, so a ``strict=False`` driver reports sound partial
results rather than nothing.

Recovery never changes results: stages are pure functions of their
content-addressed inputs, so a replayed stage produces the same bytes
and a recovered run stays byte-identical to an undisturbed one (the
chaos CI job diffs exactly this).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

from repro.errors import PipelineError

#: Classification labels carried by :class:`TaskFailure`.
TRANSIENT = "transient"
PERMANENT = "permanent"
CASCADED = "cascaded"


class StageTimeout(PipelineError):
    """A pool stage exceeded its timeout budget and was killed."""


#: Substrate failures worth retrying.  ``BrokenExecutor`` covers
#: ``BrokenProcessPool`` (worker SIGKILL / OOM-kill); Connection /
#: EOF / pipe errors are torn executor IPC, not stage semantics.
_TRANSIENT_TYPES = (BrokenExecutor, StageTimeout, TimeoutError,
                    ConnectionError, EOFError, InterruptedError)


def classify_failure(error: BaseException) -> str:
    """``"transient"`` (retry) or ``"permanent"`` (quarantine)."""
    return TRANSIENT if isinstance(error, _TRANSIENT_TYPES) \
        else PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler retries, backs off and times stages out.

    :meth:`backoff` is deterministic (pure exponential): retry ``n``'s
    *ceiling* is ``min(backoff_cap, backoff_base * 2**(n-1))`` seconds.
    The actual sleep (:meth:`sleep_backoff`) subtracts a random
    ``jitter`` fraction of that ceiling, so a fleet of tasks felled by
    one shared cause (a pool rebuild) does not
    retry in lockstep — and it is *interruptible*: given a deadline it
    sleeps at most until then instead of sleeping through it.
    ``timeout`` bounds every pool stage's wall-clock;
    ``stage_timeouts`` overrides it per stage name (inline stages
    cannot be preempted and are not timed out).  ``sleep`` and ``rng``
    are injectable so tests retry instantly and deterministically.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    timeout: float | None = None
    stage_timeouts: dict[str, float] | None = None
    sleep: Callable[[float], None] = time.sleep
    #: Fraction of the backoff ceiling randomised away: the sleep is
    #: uniform in ``[backoff * (1 - jitter), backoff]``.  ``0`` keeps
    #: the legacy deterministic schedule.
    jitter: float = 0.5
    rng: Callable[[], float] = random.random

    def backoff(self, attempt: int) -> float:
        """Ceiling seconds to wait after the ``attempt``-th failure
        (1-based); deterministic, jitter applies in
        :meth:`sleep_backoff` only."""
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (max(1, attempt) - 1)))

    def sleep_backoff(self, attempt: int, *,
                      deadline: float | None = None) -> float:
        """Sleep the jittered backoff for ``attempt``; returns the
        seconds actually slept.

        ``deadline`` is a ``time.monotonic`` instant (e.g. the nearest
        in-flight stage timeout): the sleep is clamped so the caller
        wakes in time to act on it rather than sleeping through it.
        """
        duration = self.backoff(attempt)
        if self.jitter > 0:
            duration -= duration * self.jitter * self.rng()
        if deadline is not None:
            duration = min(duration, max(0.0, deadline - time.monotonic()))
        if duration > 0:
            self.sleep(duration)
            return duration
        return 0.0

    def timeout_for(self, stage: str) -> float | None:
        if self.stage_timeouts and stage in self.stage_timeouts:
            return self.stage_timeouts[stage]
        return self.timeout


#: The drivers' default: transient recovery on, no stage timeouts.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure record standing in for a task's result.

    In ``strict=False`` runs the scheduler's result dict maps a
    quarantined task's key to one of these instead of a stage value;
    dependent tasks receive a ``cascaded`` failure pointing at the
    quarantined root via ``root_key``.
    """

    key: str
    stage: str
    #: ``transient`` / ``permanent`` / ``cascaded``.
    classification: str
    #: Execution attempts charged to this task (0 for cascades).
    attempts: int
    #: ``TypeName: message`` of the final error.
    error: str
    #: In-stage seconds of the final failing attempt (0 when unknown —
    #: e.g. the victim of a pool break cannot report its time).
    elapsed: float = 0.0
    #: For cascades: the quarantined task this failure descends from.
    root_key: str | None = None

    @property
    def cascaded(self) -> bool:
        return self.classification == CASCADED

    def as_dict(self) -> dict:
        """JSON-serialisable form (stable field names)."""
        return {"key": self.key, "stage": self.stage,
                "classification": self.classification,
                "attempts": self.attempts, "error": self.error,
                "elapsed": self.elapsed, "root_key": self.root_key}

    @classmethod
    def from_dict(cls, value: dict) -> "TaskFailure":
        return cls(key=str(value["key"]), stage=str(value["stage"]),
                   classification=str(value["classification"]),
                   attempts=int(value["attempts"]),
                   error=str(value["error"]),
                   elapsed=float(value.get("elapsed", 0.0)),
                   root_key=value.get("root_key"))


@dataclass
class FailureReport:
    """Structured resilience accounting of one pipeline run.

    Lives on :class:`~repro.pipeline.scheduler.PipelineStats`, so
    every driver that already threads ``pipeline_stats`` gets the
    failure ledger for free.  ``failures`` lists terminal records only
    (quarantines and their cascades) — a retried-then-recovered task
    shows up solely in the ``retries`` counter, keeping clean-run
    reports structurally empty.
    """

    failures: list[TaskFailure] = field(default_factory=list)
    #: Resubmissions after a transient failure.
    retries: int = 0
    #: Pool stages killed for overrunning their timeout budget.
    timeouts: int = 0
    #: Worker-pool rebuilds (pool breaks + timeout kills).
    pool_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def quarantined(self) -> tuple[TaskFailure, ...]:
        """Root failures only (cascades excluded)."""
        return tuple(failure for failure in self.failures
                     if failure.classification != CASCADED)

    def summary(self) -> dict[str, int]:
        return {
            "failed_tasks": len(self.failures),
            "quarantined": len(self.quarantined),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
        }

    def as_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`.

        Lets drivers persist the failure ledger alongside a partial
        report and lets a wrapping service return it over the wire.
        """
        return {"failures": [failure.as_dict()
                             for failure in self.failures],
                "retries": self.retries, "timeouts": self.timeouts,
                "pool_rebuilds": self.pool_rebuilds}

    @classmethod
    def from_dict(cls, value: dict) -> "FailureReport":
        return cls(failures=[TaskFailure.from_dict(item)
                             for item in value.get("failures", ())],
                   retries=int(value.get("retries", 0)),
                   timeouts=int(value.get("timeouts", 0)),
                   pool_rebuilds=int(value.get("pool_rebuilds", 0)))
