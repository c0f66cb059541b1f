"""The multi-geometry sweep service and its Pareto reporting."""

from __future__ import annotations

import re

import pytest

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError
from repro.pwcet import EstimatorConfig
from repro.sweep import (DesignPoint, SweepCell, format_pareto_fronts,
                         format_sweep_report, geometry_grid, pareto_front,
                         run_sweep, sweep_cells)

SUBSET = ("bs", "fibcall")


class TestGrid:
    def test_default_grid_covers_at_least_twelve_geometries(self):
        grid = geometry_grid()
        assert len(grid) >= 12
        assert len(set(grid)) == len(grid)
        assert CacheGeometry.from_size(1024, 4, 16) in grid  # the paper's

    def test_infeasible_combinations_are_skipped(self):
        grid = geometry_grid(sizes=(128,), ways=(2, 8), lines=(32,))
        # 128 B in 8 ways of 32 B lines does not divide; 2 ways does.
        assert grid == (CacheGeometry.from_size(128, 2, 32),)

    def test_fully_infeasible_axes_raise(self):
        with pytest.raises(ConfigurationError):
            geometry_grid(sizes=(64,), ways=(8,), lines=(32,))

    def test_cells_are_geometry_major(self):
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        cells = sweep_cells(geometries, pfails=(1e-4, 1e-3))
        assert [cell.geometry.total_bytes for cell in cells] == \
            [512, 512, 1024, 1024]
        assert [cell.pfail for cell in cells] == [1e-4, 1e-3, 1e-4, 1e-3]


def _point(mechanism="srb", gain=0.5, area=100.0, pfail=1e-4,
           geometry=None) -> DesignPoint:
    if geometry is None:
        geometry = CacheGeometry.from_size(1024, 4, 16)
    return DesignPoint(cell=SweepCell(geometry=geometry, pfail=pfail),
                       mechanism=mechanism, mean_pwcet=1000.0,
                       mean_gain=gain, area_cells=area,
                       area_overhead=0.1, leakage_cells=area)


class TestParetoFront:
    def test_dominated_points_are_dropped(self):
        cheap_good = _point(gain=0.6, area=100.0)
        pricey_bad = _point(gain=0.5, area=200.0)
        pricey_best = _point(gain=0.9, area=300.0)
        front = pareto_front((pricey_bad, cheap_good, pricey_best))
        assert front == (cheap_good, pricey_best)

    def test_equal_points_both_survive(self):
        twin_a, twin_b = _point(), _point()
        assert len(pareto_front((twin_a, twin_b))) == 2

    def test_front_is_sorted_cheapest_first(self):
        points = (_point(gain=0.9, area=300.0), _point(gain=0.6, area=100.0))
        front = pareto_front(points)
        assert [point.area_cells for point in front] == [100.0, 300.0]


class TestRunSweep:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("sweepcache"))
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        return run_sweep(geometries, pfails=(1e-4, 1e-3),
                         benchmarks=SUBSET,
                         config=EstimatorConfig(cache=cache))

    def test_every_cell_and_mechanism_reported(self, result):
        assert len(result.cells()) == 4  # 2 geometries x 2 pfails
        assert len(result.points) == 4 * 3  # x (none, srb, rw)

    def test_gains_and_costs_are_sane(self, result):
        for point in result.points:
            assert 0.0 <= point.mean_gain <= 1.0
            assert point.mean_pwcet > 0
            assert point.area_cells > 0
            if point.mechanism == "none":
                assert point.mean_gain == 0.0
                assert point.area_overhead == 0.0
            else:
                assert point.area_overhead > 0.0

    def test_pfail_axis_is_prefilled_by_the_batched_kernel(self, result):
        """Grid cells that share penalty structure never recompute it:
        each (benchmark, geometry) cells task computes a mechanism's
        whole pfail axis in one batched distribution pass, so the
        second column costs no solver or analysis work at all."""
        totals = result.solver_totals
        # 2 geometries x len(SUBSET) benchmarks x 3 mechanisms x 1
        # sibling pfail — one batched row per second-column cell.
        expected = 2 * len(SUBSET) * 3
        assert totals["dist_batched_rows"] == expected
        assert totals["cells_computed"] == 2 * expected
        assert totals["cells_from_store"] == 0
        # One polytope per (benchmark, line size): every objective of
        # the sweep is solved exactly once, never re-read from disk.
        assert totals["store_hits"] == 0

    def test_report_contains_fronts_and_solver_summary(self, result):
        text = format_sweep_report(result)
        assert "Pareto front — srb at pfail=0.0001" in text
        assert "Pareto front — rw at pfail=0.001" in text
        assert "persistent cache" in text

    def test_cli_sweep_repeated_axis_values_run_once(self, capsys):
        """A repeated geometry axis value is one grid cell, as a
        repeated benchmark or pfail is."""
        from repro.cli import main
        outputs = []
        for sizes in (["512"], ["512", "512"]):
            assert main(["sweep", "--sizes", *sizes, "--ways", "2",
                         "--lines", "16", "--benchmarks", "bs",
                         "--cache", "off"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_relaxed_store_hit_rate_counts_lp_solves(self, tmp_path):
        """A --relaxed sweep solves LPs, not ILPs: the hit rate divides
        the store hits by every backend-bound solve, LPs included."""
        config = EstimatorConfig(cache=str(tmp_path / "store"),
                                 relaxed=True)
        run_sweep(geometry_grid(sizes=(512,), ways=(2,), lines=(16,)),
                  pfails=(1e-4,), benchmarks=("crc",), config=config)
        result = run_sweep(
            geometry_grid(sizes=(512, 1024), ways=(2, 4), lines=(16,)),
            pfails=(1e-4,), benchmarks=("crc",), config=config)
        totals = result.solver_totals
        assert totals["ilp_solved"] == 0
        assert totals["lp_solved"] > 0 and totals["store_hits"] > 0
        rate = totals["store_hits"] / (totals["lp_solved"]
                                       + totals["store_hits"])
        (printed,) = re.findall(r"hit rate ([0-9.]+)%",
                                format_sweep_report(result))
        assert printed == f"{rate * 100:.1f}"
        assert printed != "100.0"

    def test_fronts_never_mix_pfails(self, result):
        text = format_pareto_fronts(result)
        for section in text.split("\n\n"):
            header = section.splitlines()[0]
            pfail = "1e-04" if "0.0001" in header else "1e-03"
            for line in section.splitlines()[3:]:
                assert pfail in line

    def test_streaming_callback_sees_every_cell_in_grid_order(
            self, tmp_path):
        seen = []

        def on_cell(cell, points, completed, total):
            seen.append((cell, points, completed, total))

        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        result = run_sweep(geometries, pfails=(1e-4,),
                           benchmarks=("fibcall",),
                           config=EstimatorConfig(
                               cache=str(tmp_path / "store")),
                           on_cell=on_cell)
        assert [cell for cell, *_ in seen] == list(result.cells())
        assert [completed for *_, completed, _ in seen] == [1, 2]
        assert all(total == 2 for *_, total in seen)
        streamed = [point for _, points, *_ in seen for point in points]
        assert tuple(streamed) == result.points


class TestParallelSweep:
    """`repro sweep --workers N`: whole-cell fan-out over a pool."""

    def test_parallel_report_is_byte_identical(self, tmp_path):
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        kwargs = dict(pfails=(1e-4, 1e-3), benchmarks=("fibcall",),
                      probability=1e-15)
        sequential = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "seq")), **kwargs)
        parallel = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "par"), workers=2),
            **kwargs)
        assert parallel.points == sequential.points
        assert format_sweep_report(parallel) == \
            format_sweep_report(sequential)

    def test_parallel_streaming_covers_every_cell(self, tmp_path):
        seen = []
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        result = run_sweep(geometries, pfails=(1e-4,),
                           benchmarks=("fibcall",),
                           config=EstimatorConfig(
                               cache=str(tmp_path / "store"), workers=2),
                           on_cell=lambda cell, points, completed, total:
                           seen.append((cell, completed, total)))
        # Completion order is nondeterministic; coverage is not.
        assert {cell for cell, *_ in seen} == set(result.cells())
        assert sorted(completed for _, completed, _ in seen) == [1, 2]

    @pytest.mark.parametrize("workers", (1, 4))
    def test_stacked_groups_match_single_geometry_sweeps(self, tmp_path,
                                                         workers):
        """Stacking a line-size group changes no design point.

        Two line-size groups of two, so ``workers=4`` runs both
        groups' classify tasks on the pool at once; each geometry swept
        alone is a group of one.  Only the fixpoint count and the
        batching counters differ.
        """
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16, 32))
        kwargs = dict(pfails=(1e-4,), benchmarks=("fibcall", "bs"))
        stacked = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "stacked"),
                                   workers=workers),
            **kwargs)
        alone_fixpoints = 0
        for geometry in geometries:
            alone = run_sweep(
                (geometry,),
                config=EstimatorConfig(cache=str(tmp_path / "alone"),
                                       workers=workers),
                **kwargs)
            assert alone.points == tuple(
                point for point in stacked.points
                if point.geometry == geometry)
            assert alone.solver_totals["geometry_groups"] == 0
            alone_fixpoints += alone.solver_totals["fixpoints_run"]
        # One stacked pair + SRB per (benchmark, group) vs one per
        # (benchmark, geometry): 2x fewer with groups of two.
        assert stacked.solver_totals["fixpoints_run"] * 2 == \
            alone_fixpoints == 2 * 4 * 3
        # Each benchmark batched one sibling geometry per group.
        assert stacked.solver_totals["classify_batched_rows"] == 2 * 2
        assert stacked.solver_totals["geometry_groups"] == 2 * 2

    def test_parallel_cap_never_oversubscribes(self, tmp_path,
                                               monkeypatch):
        """A sweep opens exactly one pool of the requested width.

        The grid is one flat DAG: however many line-size groups,
        geometries or benchmarks it holds, no nested pool multiplies
        the ``workers`` budget."""
        import concurrent.futures

        widths = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        # The scheduler imports the pool class when it builds a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        run_sweep(geometry_grid(sizes=(512, 1024), ways=(2,),
                                lines=(16, 32)),
                  pfails=(1e-4,), benchmarks=("fibcall", "bs"),
                  config=EstimatorConfig(cache=str(tmp_path / "store"),
                                         workers=2))
        assert widths == [2]

    def test_cli_sweep_workers_streams_progress(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--sizes", "512", "--ways", "2",
                     "--lines", "16", "--benchmarks", "fibcall",
                     "--workers", "2",
                     "--cache", str(tmp_path / "store")]) == 0
        captured = capsys.readouterr()
        assert "Pareto front" in captured.out
        assert "best gain" in captured.err
        assert "[  1/1]" in captured.err
