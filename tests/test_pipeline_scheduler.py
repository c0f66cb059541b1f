"""The pipeline DAG scheduler: ordering, validation, stats.

The tentpole property is topological soundness: whatever the DAG
shape, a task only ever runs after every one of its dependencies —
property-tested over random DAGs.  The inline path is additionally
deterministic (submission order), which the bit-identity guarantees of
the suite/sweep drivers build on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PipelineError
from repro.pipeline import PipelineScheduler, PipelineStats


def record(log, key):
    """A task body that logs its key and returns it."""
    def fn(*deps):
        log.append(key)
        return key
    return fn


class TestDagExecution:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_dags_respect_dependencies(self, data):
        """Execution order is a topological order of any random DAG.

        DAGs are generated acyclic by construction: task ``i`` may
        only depend on tasks ``j < i``, with a random subset chosen
        per task (including diamonds, chains, fan-in and fan-out).
        """
        size = data.draw(st.integers(min_value=1, max_value=12),
                         label="size")
        deps = {}
        for index in range(size):
            if index == 0:
                deps[index] = []
            else:
                deps[index] = data.draw(
                    st.lists(st.integers(min_value=0,
                                         max_value=index - 1),
                             unique=True, max_size=index),
                    label=f"deps[{index}]")
        # Insertion order is shuffled so readiness, not insertion,
        # must drive the topological order.
        insertion = data.draw(st.permutations(range(size)),
                              label="insertion")
        scheduler = PipelineScheduler(workers=1)
        log: list[str] = []
        for index in insertion:
            scheduler.add(f"t{index}", record(log, f"t{index}"),
                          deps=tuple(f"t{dep}" for dep in deps[index]))
        results = scheduler.run()
        assert set(results) == {f"t{index}" for index in range(size)}
        position = {key: rank for rank, key in enumerate(log)}
        for index in range(size):
            for dep in deps[index]:
                assert position[f"t{dep}"] < position[f"t{index}"]

    def test_inline_execution_is_submission_ordered(self):
        scheduler = PipelineScheduler(workers=1)
        log: list[str] = []
        scheduler.add("a", record(log, "a"))
        scheduler.add("b", record(log, "b"), deps=("a",))
        scheduler.add("c", record(log, "c"))
        scheduler.add("d", record(log, "d"), deps=("b", "c"))
        scheduler.run()
        # "b" unblocks immediately after "a" and outranks "c" by
        # submission index; "d" waits for both.
        assert log == ["a", "b", "c", "d"]

    def test_dependency_results_arrive_in_declared_order(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("x", lambda: "X")
        scheduler.add("y", lambda: "Y")
        scheduler.add("joined", lambda *parts: "".join(parts),
                      args=("=",), deps=("y", "x"))
        assert scheduler.run()["joined"] == "=YX"

    def test_on_task_streams_completions(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("a", lambda: 1)
        scheduler.add("b", lambda a: a + 1, deps=("a",))
        seen = []
        scheduler.run(on_task=lambda key, value, completed, total:
                      seen.append((key, value, completed, total)))
        assert seen == [("a", 1, 1, 2), ("b", 2, 2, 2)]

    def test_scheduler_is_reusable_after_run(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("a", lambda: 1)
        assert scheduler.run() == {"a": 1}
        scheduler.add("a", lambda: 2)  # same key, next DAG
        assert scheduler.run() == {"a": 2}


class TestDagValidation:
    def test_duplicate_key_rejected(self):
        scheduler = PipelineScheduler()
        scheduler.add("a", lambda: 1)
        with pytest.raises(PipelineError, match="duplicate"):
            scheduler.add("a", lambda: 2)

    def test_unknown_dependency_rejected(self):
        scheduler = PipelineScheduler()
        scheduler.add("a", lambda: 1, deps=("ghost",))
        with pytest.raises(PipelineError, match="unknown task"):
            scheduler.run()

    def test_cycle_detected(self):
        scheduler = PipelineScheduler()
        scheduler.add("a", lambda b: 1, deps=("b",))
        scheduler.add("b", lambda a: 2, deps=("a",))
        with pytest.raises(PipelineError, match="deadlock"):
            scheduler.run()


class TestPipelineStats:
    def test_missing_counter_reads_zero(self):
        assert PipelineStats().counters["cells_from_store"] == 0

    def test_task_counts_per_stage(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("a", lambda: 1, stage="solve")
        scheduler.add("b", lambda: 2, stage="solve")
        scheduler.add("c", lambda: 3, stage="cell")
        stats = PipelineStats()
        scheduler.run(stats=stats)
        assert stats.tasks == {"solve": 2, "cell": 1}
        assert stats.tasks.total() == 3
        assert stats.wall_seconds > 0.0

    def test_stats_scope_is_per_run(self):
        """Two runs through one scheduler never share a stats scope."""
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("a", lambda: 1, stage="s")
        first = PipelineStats()
        scheduler.run(stats=first)
        scheduler.add("a", lambda: 1, stage="s")
        second = PipelineStats()
        scheduler.run(stats=second)
        assert first.tasks == {"s": 1}
        assert second.tasks == {"s": 1}
