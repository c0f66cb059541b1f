"""The dependency-DAG scheduler of the suite runner and the sweep.

One :class:`PipelineScheduler` owns one worker pool and executes a DAG
of stage tasks: the solve and cells tasks of every benchmark and
geometry all land on the *same* pool, so one benchmark's cells task
starts while another benchmark's solve task is still running — there
is no phase barrier between stages, only the declared dependencies.

Execution model
---------------

* Tasks are added with :meth:`PipelineScheduler.add` — a key, a
  callable, static args, dependency keys, and whether the task may run
  on the process pool.  Dependency results are appended to the task's
  positional arguments in declared order.
* :meth:`run` first applies the *invalidation plan* (:meth:`plan`):
  every task registered with a ``probe`` asks its persistent store by
  content address, and probe hits whose results are still demanded are
  completed from the store before any worker starts — while tasks
  nobody demands any more (their only dependents were all satisfied)
  are skipped outright.  Editing one suite program therefore
  recomputes only that benchmark's stages; everything else is
  satisfied-from-store.
* Ready tasks are dispatched in ``(order key, insertion index)``
  order — stage tasks carry a rank string (benchmark, line size,
  geometry position) as the order key, so dispatch order (and with it
  the streamed progress and merged counters) is reproducible across
  runs and Python hash seeds.  The
  ``workers=1`` inline path is thereby a deterministic sequential
  program — the property the bit-identity guarantees lean on.
* Pool tasks run only in the ``workers`` pool processes; the parent
  only dispatches.  At most two pool tasks per worker are in flight —
  one running and one queued behind it, so a worker never idles while
  the parent notices its result and submits the next task.  The
  scheduler keeps the rest queued itself instead of handing them to
  the executor, so a freshly unblocked low-order task is never stuck
  behind a wall of queued high-order ones.
* Inline tasks (closures over in-process state — the drivers' result
  sinks) run in the parent while pool futures are outstanding; with
  nothing inline ready the parent waits for the next completion.
* One failure rule.  Stages are pure functions of content-addressed
  inputs, so a stage that raised would raise again: any exception a
  stage raises, inline or on the pool, aborts the run at once.  The
  one fault worth a retry is a dead worker (``BrokenExecutor``): the
  pool is rebuilt and every in-flight task resubmitted, up to
  :data:`MAX_POOL_REBUILDS` times per run.

Per-run work is accounted in a fresh :class:`PipelineStats` — the
sum of every stage's work counters, scoped to one
:meth:`run` invocation so re-entrant drivers can never double-count or
silently zero a previous run's numbers.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PipelineError
from repro.testing import faultinject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

#: Pool rebuilds one run may spend on dead workers; the next
#: ``BrokenExecutor`` propagates.  Per run, not per task: the victim
#: of a pool break cannot be known.
MAX_POOL_REBUILDS = 3


@dataclass
class FailureReport:
    """Pool-recovery counters of one run (both zero on a clean run)."""

    #: Tasks resubmitted to a rebuilt pool.
    retries: int = 0
    #: Worker pools rebuilt after a worker died.
    pool_rebuilds: int = 0


@dataclass
class PipelineStats:
    """Counters of one pipeline run: stage tasks + summed work counters.

    Every field but the wall clock is a :class:`~collections.Counter`
    (a key nothing counted reads 0).  ``counters`` is the run's one
    home for work counts: the solver family
    (:class:`~repro.solve.planner.SolveStats`), the analysis family
    (:class:`~repro.analysis.classify.AnalysisStats`) and the cells
    tasks' row counts, summed over every stage of the run.
    Scope is one run: a fresh instance per :meth:`PipelineScheduler
    .run` (or one passed in by the driver), never shared module state.
    """

    #: Completed tasks per stage name.
    tasks: Counter[str] = field(default_factory=Counter)
    #: Tasks satisfied from a persistent store by the plan pass,
    #: per stage name — these never ran.
    from_store: Counter[str] = field(default_factory=Counter)
    #: Wall-clock seconds spent *executing* each stage's tasks (pool
    #: tasks report their in-worker time; concurrent stages therefore
    #: sum to more than ``wall_seconds``).
    stage_seconds: Counter[str] = field(default_factory=Counter)
    #: Summed work counters of every stage (solver, analysis, cells).
    counters: Counter[str] = field(default_factory=Counter)
    #: Wall-clock seconds spent inside :meth:`PipelineScheduler.run`.
    wall_seconds: float = 0.0
    #: Resubmitted tasks and pool rebuilds after dead workers.
    failure_report: FailureReport = field(default_factory=FailureReport)


@dataclass
class _Task:
    key: str
    stage: str
    fn: Callable
    args: tuple
    deps: tuple[str, ...]
    pool: bool
    index: int
    #: Dispatch order within the ready set (before the insertion
    #: index).  Stage tasks pass a rank string so dispatch is
    #: reproducible across hash seeds; the default ``""`` preserves
    #: pure insertion order (and sorts ahead of any rank).
    order: str = ""
    #: Store probe of the plan pass: returns the finished result when
    #: the stage's persistent store already holds it, else ``None``.
    probe: Callable[[], object] | None = None


def _run_pool_task(fn: Callable, args: tuple) -> tuple[object, float]:
    """Pool entry point: one stage task.

    Returns ``(value, seconds)``, so the parent can attribute
    in-worker wall-clock to the task's stage; an exception propagates.
    """
    started = time.perf_counter()
    faultinject.worker_hook(getattr(fn, "__name__", str(fn)))
    value = fn(*args)
    return value, time.perf_counter() - started


class PipelineScheduler:
    """Executes stage-task DAGs over one shared worker pool."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._tasks: dict[str, _Task] = {}
        self._pool: ProcessPoolExecutor | None = None

    # -- DAG construction ----------------------------------------------
    def add(self, key: str, fn: Callable, *, args: tuple = (),
            deps: Sequence[str] = (), stage: str = "task",
            pool: bool = False, order_key: str | None = None,
            probe: Callable[[], object] | None = None) -> str:
        """Register one stage task; returns ``key`` (to name in ``deps``).

        ``fn`` is called as ``fn(*args, *dep_results)`` with dependency
        results in declared order.  ``pool=True`` allows execution on
        the process pool (``fn`` and every argument must pickle);
        forward references in ``deps`` are fine — the DAG is validated
        at :meth:`run`.  ``order_key`` ranks the task within the ready
        set ahead of the insertion index, making dispatch hash-seed
        independent; ``probe`` lets the plan pass satisfy the task
        from its persistent store (it returns the finished result, or
        ``None`` to run normally).
        """
        if key in self._tasks:
            raise PipelineError(f"duplicate pipeline task key {key!r}")
        self._tasks[key] = _Task(
            key=key, stage=stage, fn=fn, args=tuple(args),
            deps=tuple(deps), pool=bool(pool) and self.workers > 1,
            index=len(self._tasks),
            order=order_key if order_key is not None else "",
            probe=probe)
        return key

    # -- planning -------------------------------------------------------
    def _plan(self, tasks: dict[str, _Task]
              ) -> tuple[dict[str, object], dict[str, bool],
                         dict[str, bool]]:
        """The incremental-invalidation pass over one task set.

        Probes every probed task's persistent store by content
        address, then walks the DAG in reverse topological order to
        decide, per task: *satisfied* (probe hit — complete from store
        without running), *run* (somebody still needs a fresh result),
        or neither (skipped — every transitive dependent was
        satisfied).  A task is demanded iff it is a sink or some
        dependent will run; tasks on a cycle are conservatively left
        to run so :meth:`run` reports the deadlock as before.

        Returns ``(satisfied results, demanded flags, will-run
        flags)`` keyed by task key.
        """
        for task in tasks.values():
            for dep in task.deps:
                if dep not in tasks:
                    raise PipelineError(
                        f"task {task.key!r} depends on unknown task "
                        f"{dep!r}")
        dependents: dict[str, list[str]] = {key: [] for key in tasks}
        indegree: dict[str, int] = {}
        for task in tasks.values():
            indegree[task.key] = len(task.deps)
            for dep in task.deps:
                dependents[dep].append(task.key)
        queue = [key for key, count in indegree.items() if count == 0]
        order: list[str] = []
        while queue:
            key = queue.pop()
            order.append(key)
            for dependent in dependents[key]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    queue.append(dependent)
        satisfied: dict[str, object] = {}
        for key in order:
            task = tasks[key]
            if task.probe is not None:
                value = task.probe()
                if value is not None:
                    satisfied[key] = value
        demanded: dict[str, bool] = {}
        will_run: dict[str, bool] = {}
        if len(order) < len(tasks):
            for key in set(tasks) - set(order):
                demanded[key] = True  # cyclic: let run() raise
                will_run[key] = True
        for key in reversed(order):
            demanded[key] = (not dependents[key]
                             or any(will_run[dependent]
                                    for dependent in dependents[key]))
            will_run[key] = demanded[key] and key not in satisfied
        return satisfied, demanded, will_run

    def plan(self) -> dict[str, tuple[str, ...]]:
        """Dry-run the invalidation pass over the pending task set.

        Returns the keys partitioned into ``"from_store"`` (probe hits
        that will be completed from their persistent store),
        ``"run"`` (tasks that will execute), and ``"skipped"`` (tasks
        no remaining dependent demands).  The task set is *not*
        consumed; :meth:`run` re-applies the same pass.
        """
        satisfied, demanded, will_run = self._plan(self._tasks)
        return {
            "from_store": tuple(sorted(
                key for key in satisfied if demanded[key])),
            "run": tuple(sorted(
                key for key, runs in will_run.items() if runs)),
            "skipped": tuple(sorted(
                key for key, need in demanded.items() if not need)),
        }

    # -- execution ------------------------------------------------------
    def run(self, *, stats: PipelineStats | None = None,
            on_task: Callable[[str, object, int, int], None] | None = None
            ) -> dict[str, object]:
        """Execute every added task; return results keyed by task key.

        The task set is consumed: the scheduler is immediately reusable
        for the next DAG.  ``stats`` scopes the run's counters;
        ``on_task(key, result, completed, total)`` streams completions
        (deterministic submission order inline, completion order with
        a pool).
        """
        tasks, self._tasks = self._tasks, {}
        if stats is None:
            stats = PipelineStats()
        report = stats.failure_report
        started = time.perf_counter()
        satisfied, demanded, _will_run = self._plan(tasks)
        # Tasks nobody demands any more (every transitive dependent is
        # satisfied from a store) are skipped outright.
        tasks = {key: task for key, task in tasks.items()
                 if demanded[key]}

        dependents: dict[str, list[str]] = {key: [] for key in tasks}
        missing: dict[str, int] = {}
        for task in tasks.values():
            live = [dep for dep in task.deps if dep in tasks]
            missing[task.key] = len(live)
            for dep in live:
                dependents[dep].append(task.key)

        ready_pool: list[tuple[str, int, str]] = []
        ready_inline: list[tuple[str, int, str]] = []

        def push_ready(task: _Task) -> None:
            heap = ready_pool if task.pool else ready_inline
            heapq.heappush(heap, (task.order, task.index, task.key))

        results: dict[str, object] = {}
        in_flight: dict[Future, str] = {}

        def unblock(key: str) -> None:
            for dependent in dependents[key]:
                missing[dependent] -= 1
                if missing[dependent] == 0 and dependent not in satisfied:
                    push_ready(tasks[dependent])

        def complete(key: str, value: object, seconds: float) -> None:
            results[key] = value
            stats.tasks[tasks[key].stage] += 1
            stats.stage_seconds[tasks[key].stage] += seconds
            unblock(key)
            if on_task is not None:
                on_task(key, value, len(results), len(tasks))

        def run_inline(key: str) -> None:
            task = tasks[key]
            task_started = time.perf_counter()
            value = task.fn(*task.args, *(results[dep] for dep in task.deps))
            complete(key, value, time.perf_counter() - task_started)

        def pool_break(key: str, error: BrokenExecutor) -> None:
            """A worker died and broke the pool: every in-flight task
            is lost and the victim is unknowable, so the pool is
            rebuilt and all of them resubmitted, within the run's
            rebuild budget."""
            if report.pool_rebuilds >= MAX_POOL_REBUILDS:
                raise error
            report.pool_rebuilds += 1
            victims = [key, *in_flight.values()]
            in_flight.clear()
            self._discard_pool()
            report.retries += len(victims)
            for victim in victims:
                push_ready(tasks[victim])

        def drain(block: bool) -> None:
            if not in_flight:
                return
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED,
                           timeout=None if block else 0.0)
            for future in done:
                key = in_flight.pop(future, None)
                if key is None:
                    continue  # reaped by a pool break in this batch
                try:
                    value, seconds = future.result()
                except BrokenExecutor as error:
                    pool_break(key, error)
                    continue
                complete(key, value, seconds)

        # Initially-ready runnable tasks first (their missing count is
        # 0 from the start, so the unblock path below never re-pushes
        # them), then satisfied tasks complete from their stores
        # before any worker starts — dependents see the decoded
        # results verbatim and are pushed exactly once, by unblock.
        for task in tasks.values():
            if missing[task.key] == 0 and task.key not in satisfied:
                push_ready(task)
        for key in sorted(satisfied,
                          key=lambda k: (tasks[k].order, tasks[k].index)
                          if k in tasks else ("", -1)):
            if key not in tasks:
                continue  # satisfied but undemanded: skipped entirely
            results[key] = satisfied[key]
            stats.from_store[tasks[key].stage] += 1
            unblock(key)

        try:
            while len(results) < len(tasks):
                drain(block=False)
                while ready_pool and len(in_flight) < 2 * self.workers:
                    _, _, key = heapq.heappop(ready_pool)
                    task = tasks[key]
                    args = task.args + tuple(results[dep]
                                             for dep in task.deps)
                    try:
                        future = self._ensure_pool().submit(
                            _run_pool_task, task.fn, args)
                    except BrokenExecutor as error:
                        # A worker died between drain() and this
                        # submit: the executor refuses new work before
                        # the in-flight futures have surfaced the
                        # break.  Same recovery as a future-side break.
                        pool_break(key, error)
                        continue
                    in_flight[future] = key
                if ready_inline:
                    _, _, key = heapq.heappop(ready_inline)
                    run_inline(key)
                elif in_flight:
                    drain(block=True)
                elif len(results) < len(tasks):
                    stuck = sorted(key for key in tasks
                                   if key not in results)
                    raise PipelineError(
                        "pipeline deadlock: cyclic dependencies among "
                        f"{stuck}")
        finally:
            stats.wall_seconds += time.perf_counter() - started
            self._close_pool()
        return results

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _discard_pool(self) -> None:
        """Drop a broken pool (its workers are already dead); the next
        ``_ensure_pool`` builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
