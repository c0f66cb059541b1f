"""The incremental cell-granular DAG.

Covers the plan pass (content-address probes, satisfied-from-store
completion, undemanded-task skipping), deterministic artifact-key
dispatch order, bit-identity of the flat DAG against one-program
DAGs, one-program-edit invalidation, and the
sweep's grid axes (a repeated pfail is one column).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.experiments.runner import run_suite
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pwcet import EstimatorConfig
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

SUBSET = ("bs", "fibcall", "prime")
MECHANISMS = ("none", "srb", "rw")


def _value_and_pid(value):
    """Picklable pool task body: the value and the process that ran it."""
    time.sleep(0.05)
    return value, os.getpid()


class TestPlanPass:
    def test_probe_hit_satisfies_task_and_skips_upstream(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("up", lambda: ran.append("up") or "U")
        scheduler.add("mid", lambda up: ran.append("mid") or up + "M",
                      deps=("up",), stage="cell", probe=lambda: "stored")
        scheduler.add("down", lambda mid: ran.append("down") or mid + "!",
                      deps=("mid",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        # The probed task never ran, its dependent saw the stored value
        # verbatim, and the now-undemanded upstream task was skipped.
        assert ran == ["down"]
        assert results["mid"] == "stored"
        assert results["down"] == "stored!"
        assert "up" not in results
        assert stats.from_store == {"cell": 1}
        assert stats.tasks == {"task": 1}

    def test_probe_miss_runs_the_whole_chain(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("up", lambda: "U")
        scheduler.add("mid", lambda up: up + "M", deps=("up",),
                      stage="cell", probe=lambda: None)
        scheduler.add("down", lambda mid: mid + "!", deps=("mid",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["down"] == "UM!"
        assert stats.from_store == {}
        assert stats.tasks.total() == 3

    def test_partial_hits_recompute_only_the_missed_branch(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("solve", lambda: ran.append("solve") or 10)
        scheduler.add("hit", lambda solve: ran.append("hit") or solve + 1,
                      deps=("solve",), stage="cell", probe=lambda: 99)
        scheduler.add("miss", lambda solve: ran.append("miss") or solve + 2,
                      deps=("solve",), stage="cell", probe=lambda: None)
        scheduler.add("sink", lambda a, b: (a, b), deps=("hit", "miss"))
        results = scheduler.run()
        # One cell missed, so the shared solve stage still runs — and
        # the hit cell's stored value is used as-is next to it.
        assert ran == ["solve", "miss"]
        assert results["sink"] == (99, 12)

    def test_plan_is_a_dry_run(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("up", lambda: "U")
        scheduler.add("mid", lambda up: up, deps=("up",), stage="cell",
                      probe=lambda: "S")
        scheduler.add("down", lambda mid: mid + "!", deps=("mid",))
        plan = scheduler.plan()
        assert plan == {"from_store": ("mid",), "run": ("down",),
                        "skipped": ("up",)}
        # The task set was not consumed; run() applies the same plan.
        results = scheduler.run()
        assert results["down"] == "S!"

    def test_satisfied_sink_runs_nothing(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("up", lambda: ran.append("up") or "U")
        scheduler.add("sink", lambda up: ran.append("sink") or up,
                      deps=("up",), stage="cell", probe=lambda: "done")
        results = scheduler.run()
        assert ran == []
        assert results == {"sink": "done"}

    def test_pool_tasks_run_only_in_workers(self):
        scheduler = PipelineScheduler(workers=2)
        for index in range(6):
            scheduler.add(f"pool:{index}", _value_and_pid, args=(index,),
                          pool=True, stage="pool")
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert {key: value for key, (value, _) in results.items()} == {
            f"pool:{index}": index for index in range(6)}
        assert stats.tasks == {"pool": 6}
        assert stats.stage_seconds["pool"] > 0
        assert os.getpid() not in {pid for _, pid in results.values()}


class TestDeterministicOrder:
    def test_order_key_ranks_ready_dispatch(self):
        scheduler = PipelineScheduler(workers=1)
        log = []
        scheduler.add("a", lambda: log.append("a"), order_key="zz")
        scheduler.add("b", lambda: log.append("b"), order_key="aa")
        scheduler.add("c", lambda: log.append("c"))  # "" sorts first
        scheduler.run()
        assert log == ["c", "b", "a"]

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_dispatch_order_is_hash_seed_independent(self, seed,
                                                     tmp_path):
        """The same DAG dispatches in the same order under any
        PYTHONHASHSEED — the regression satellite of ISSUE 6."""
        script = (
            "from repro.pipeline import EstimationDag, PipelineScheduler\n"
            "from repro.pwcet import EstimatorConfig\n"
            "from repro.suite import load\n"
            "config = EstimatorConfig(cache='off')\n"
            "scheduler = PipelineScheduler(workers=1)\n"
            "programs = {name: load(name).cfg for name in ('fibcall', 'bs')}\n"
            "EstimationDag(scheduler, programs, (config.geometry,),\n"
            "              (config.pfail,), config)\n"
            "scheduler.run(on_task=lambda key, *rest: print(key))\n")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(root / "src")
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, cwd=root,
                             check=True)
        order = run.stdout.splitlines()
        assert len(order) == 4  # 2 x (solve + cells)
        expected = (tmp_path.parent / "dispatch-order.txt")
        # First seed records the order, the second must reproduce it
        # byte for byte (parametrised runs share tmp_path's parent).
        if expected.exists():
            assert expected.read_text().splitlines() == order
        else:
            expected.write_text("\n".join(order) + "\n")


class TestScheduleIdentity:
    """The flat DAG agrees, in every worker mode, with one-program
    DAGs run one benchmark and one cell at a time (the
    :class:`~repro.pwcet.PWCETEstimator` facade): the same values and
    the same work counters.

    Not an independent path: both run the same stages, so this pins
    batching and scheduling only.  The independent references are
    the direct FMM sweep (``_direct_fmm`` in
    ``test_solve_planner.py``), the dict Must/May oracles and the
    exact-rational penalty convolution (``tests/oracles.py``).
    """

    @staticmethod
    def _reference(name, config):
        from repro.pwcet import PWCETEstimator
        from repro.suite import load

        estimator = PWCETEstimator(load(name), config, name=name)
        return estimator, estimator.estimate_all()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_suite_matches_reference_schedule(self, tmp_path, workers):
        stats = PipelineStats()
        cellrun = run_suite(EstimatorConfig(cache=str(tmp_path),
                                            workers=workers),
                            benchmarks=SUBSET, pipeline_stats=stats)
        work = Counter()
        for result in cellrun:
            # A cold store of its own: classification-store traffic
            # counts the same as the DAG's cold run.
            estimator, estimates = self._reference(
                result.name,
                EstimatorConfig(cache=str(tmp_path / "ref" / result.name)))
            assert result.wcet_fault_free == estimator.fault_free_wcet()
            work.update(estimator.stats.counters)
            for mechanism in MECHANISMS:
                assert result.pwcet(mechanism) == \
                    estimates[mechanism].pwcet()
                assert result.estimates[mechanism].fmm.rows == \
                    estimates[mechanism].fmm.rows
        # One polytope, the same objectives: the same solver,
        # analysis and cells work, counter for counter.
        assert stats.counters == work

    @pytest.mark.parametrize("workers", [1, 4],
                             ids=["sequential", "parallel"])
    def test_sweep_report_matches_reference_schedule(self, tmp_path,
                                                     workers):
        """Every design point equals one assembled from per-cell
        estimator runs; the pfail axis ran batched."""
        from repro.sweep import SweepCell
        from repro.sweep.service import _cell_points

        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        pfails = (1e-4, 1e-3)
        benchmarks = ("bs", "fibcall")
        cellrun = run_sweep(geometries, pfails=pfails,
                            benchmarks=benchmarks,
                            config=EstimatorConfig(cache=str(tmp_path),
                                                   workers=workers))
        reference = []
        for geometry in geometries:
            for pfail in pfails:
                config = EstimatorConfig(geometry=geometry, pfail=pfail,
                                         cache="off")
                pwcets = [{mechanism: estimate.pwcet()
                           for mechanism, estimate in self._reference(
                               name, config)[1].items()}
                          for name in benchmarks]
                reference.extend(_cell_points(
                    SweepCell(geometry=geometry, pfail=pfail), pwcets))
        assert cellrun.points == tuple(reference)
        # 2 geometries x 2 benchmarks x 3 mechanisms x 1 sibling pfail.
        assert cellrun.solver_totals["dist_batched_rows"] == 12
        assert cellrun.solver_totals["cells_from_store"] == 0


class TestIncrementalInvalidation:
    def test_warm_rerun_satisfies_every_cell(self, tmp_path):
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        cold = PipelineStats()
        run_suite(config, benchmarks=SUBSET, pipeline_stats=cold)
        assert cold.counters["cells_computed"] == 3 * len(SUBSET)
        assert cold.counters["cells_from_store"] == 0
        warm = PipelineStats()
        run_suite(config, benchmarks=SUBSET, pipeline_stats=warm)
        assert warm.counters["cells_from_store"] == 3 * len(SUBSET)
        assert warm.counters["cells_computed"] == 0
        # Only the inline result sinks ran.
        assert warm.tasks == {"result": len(SUBSET)}

    def test_one_program_edit_recomputes_only_its_cells(self, tmp_path,
                                                        monkeypatch):
        """Editing one suite program invalidates that benchmark's cells
        by content address; every other benchmark stays from-store."""
        import repro.suite as suite
        from repro.minic import compile_program

        config = EstimatorConfig(cache=str(tmp_path / "store"))
        run_suite(config, benchmarks=SUBSET)
        # Simulate the edit: "bs" now compiles to a different CFG (a
        # stand-in structure borrowed from a benchmark outside the
        # subset, so its digest is genuinely new to this store).
        edited = compile_program(suite.build("cnt"))
        assert edited.cfg.digest() != suite.load("bs").cfg.digest()
        monkeypatch.setitem(suite._COMPILED_CACHE, "bs", edited)
        stats = PipelineStats()
        results = run_suite(config, benchmarks=SUBSET,
                            pipeline_stats=stats)
        assert stats.counters["cells_computed"] == 3
        assert stats.counters["cells_from_store"] == 3 * (len(SUBSET) - 1)
        # The edited benchmark re-ran its solve stage; nobody else did.
        assert stats.tasks == {"solve": 1, "cell": 1,
                               "result": len(SUBSET)}
        assert [result.name for result in results] == list(SUBSET)


class TestGridAxes:
    GEOMETRIES = geometry_grid(sizes=(512,), ways=(2,), lines=(16,))

    def test_repeated_pfail_is_one_column(self):
        """A pfail given twice yields the same cells, points and report
        as the pfail given once."""
        def sweep(pfails):
            return run_sweep(self.GEOMETRIES, pfails=pfails,
                             benchmarks=("fibcall",),
                             config=EstimatorConfig(cache="off"))

        once = sweep((1e-4,))
        twice = sweep((1e-4, 1e-4))
        assert len(twice.cells()) == 1
        assert twice.points == once.points
        assert format_sweep_report(twice) == format_sweep_report(once)
