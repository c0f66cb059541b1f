"""The command-line interface."""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Recorded stdout of the single-benchmark commands (run with
#: ``--cache off``), keyed by golden file name.
GOLDEN_COMMANDS = {
    "cli_estimate_ud.txt": ["estimate", "ud", "--mechanisms",
                            "none", "srb", "rw", "srb+"],
    "cli_curve_crc.txt": ["curve", "crc", "--max-points", "20"],
    "cli_fmm_ud_srb.txt": ["fmm", "ud", "--mechanisms", "srb"],
    "cli_tradeoff.txt": ["tradeoff"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_single_benchmark_output_is_golden(golden, capsys):
    assert main(GOLDEN_COMMANDS[golden] + ["--cache", "off"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.fixture(scope="module")
def suite_cache(tmp_path_factory):
    """A cache that one cold ``suite`` filled."""
    cache = str(tmp_path_factory.mktemp("suite-cache"))
    assert main(["suite", "--cache", cache]) == 0
    return cache


@pytest.fixture
def dag_runs(monkeypatch):
    """The :class:`~repro.pipeline.PipelineStats` of every task DAG the
    test runs, in run order."""
    from repro.pipeline import PipelineScheduler

    recorded = []
    run = PipelineScheduler.run

    def recording(scheduler, *, stats=None, on_task=None):
        recorded.append(stats)
        return run(scheduler, stats=stats, on_task=on_task)

    monkeypatch.setattr(PipelineScheduler, "run", recording)
    return recorded


class TestEstimate:
    def test_basic(self, capsys):
        assert main(["estimate", "bs"]) == 0
        output = capsys.readouterr().out
        assert "fault-free WCET" in output
        assert "none" in output and "srb" in output and "rw" in output

    def test_mechanism_selection(self, capsys):
        assert main(["estimate", "bs", "--mechanisms", "rw"]) == 0
        output = capsys.readouterr().out
        assert "rw" in output
        assert "srb:" not in output

    def test_refined_srb_at_reachable_target(self, capsys):
        assert main(["estimate", "bs", "--mechanisms", "srb+",
                     "--probability", "1e-9"]) == 0
        assert "srb+" in capsys.readouterr().out

    def test_refined_srb_refuses_deep_tail(self, capsys):
        assert main(["estimate", "bs", "--mechanisms", "srb+"]) == 0
        assert "unavailable" in capsys.readouterr().out

    def test_a_bug_in_pwcet_is_not_reported_as_unavailable(
            self, monkeypatch):
        # Only an analysis' refusal (EstimationError) prints
        # "unavailable"; any other error is a bug and must propagate.
        from repro.pwcet.estimator import PWCETEstimate

        def broken(self, probability):
            raise RuntimeError("bug in pwcet")

        monkeypatch.setattr(PWCETEstimate, "pwcet", broken)
        with pytest.raises(RuntimeError, match="bug in pwcet"):
            main(["estimate", "bs", "--mechanisms", "rw"])

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["estimate", "dhrystone"])

    def test_pfail_override(self, capsys):
        assert main(["estimate", "bs", "--pfail", "1e-6"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["estimate", "curve", "fmm",
                                         "tradeoff"])
    def test_single_benchmark_commands_take_no_workers(self, command):
        # They run in-process; only the DAG commands size a pool.
        with pytest.raises(SystemExit) as raised:
            main([command, "crc", "--workers", "2"])
        assert raised.value.code == 2


class TestOtherCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "adpcm" in output and "nsichneu" in output
        assert output.count("\n") >= 26

    def test_curve(self, capsys):
        assert main(["curve", "bs", "--mechanisms", "rw",
                     "--max-points", "5"]) == 0
        output = capsys.readouterr().out
        assert "# bs / rw" in output

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_curve_rejects_fewer_than_one_point(self, points, capsys):
        # A negative slice would print more rows than the default
        # and 0 only the header: argparse refuses both up front.
        with pytest.raises(SystemExit) as raised:
            main(["curve", "bs", "--max-points", points])
        assert raised.value.code == 2
        assert "--max-points" in capsys.readouterr().err

    def test_fmm(self, capsys):
        assert main(["fmm", "bs"]) == 0
        assert "faulty" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff", "bs"]) == 0
        output = capsys.readouterr().out
        assert "gain/area" in output

    def test_tradeoff_repeated_benchmark_runs_once(self, capsys):
        assert main(["tradeoff", "fibcall", "--cache", "off"]) == 0
        once = capsys.readouterr().out
        assert main(["tradeoff", "fibcall", "fibcall",
                     "--cache", "off"]) == 0
        assert capsys.readouterr().out == once
        assert once.count("fibcall") == 3

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_closed_stdout_pipe_exits_without_traceback(self):
        """``repro list | head -1``: the reader is gone before the
        command writes; it exits 1 with nothing on stderr."""
        import os
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([sys.executable, "-m", "repro", "list"],
                                 stdout=write_end, stderr=subprocess.PIPE,
                                 text=True, env=env, cwd=root)
        finally:
            os.close(write_end)
        assert run.stderr == ""  # no traceback, no "Exception ignored"
        assert run.returncode == 1


class TestBadInput:
    """Bad input exits 2 with one error line, before any work runs."""

    @pytest.mark.parametrize("argv, flag", [
        (["suite", "--pfail", "2"], "--pfail"),
        (["suite", "--pfail", "-0.5"], "--pfail"),
        (["suite", "--probability", "0"], "--probability"),
        (["suite", "--probability", "1"], "--probability"),
        (["estimate", "crc", "--probability", "0"], "--probability"),
        (["sweep", "--pfails", "1e-4", "2"], "--pfails"),
        (["suite", "--workers", "0"], "--workers"),
    ])
    def test_argparse_rejects_out_of_range_values(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--cache", "off"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    def test_probability_error_names_the_open_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "--probability", "0"])
        assert "must lie in (0, 1), got 0.0" in capsys.readouterr().err

    def test_boundary_pfails_are_accepted(self):
        from repro.cli import build_parser
        arguments = build_parser().parse_args(
            ["sweep", "--pfail", "0", "--pfails", "0", "1"])
        assert arguments.pfail == 0.0 and arguments.pfails == [0.0, 1.0]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--sizes", "1000", "--ways", "2", "--lines", "16",
          "--benchmarks", "bs"], "no feasible geometry"),
        (["tradeoff", "nosuch"], "unknown benchmark 'nosuch'"),
        (["estimate", "nosuch"], "unknown benchmark 'nosuch'"),
        (["sweep", "--benchmarks", "nosuch"], "unknown benchmark 'nosuch'"),
    ])
    def test_configuration_errors_print_one_line(self, argv, message,
                                                 capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--cache", "off"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {message}")
        assert err.count("\n") == 1


class TestSweep:
    def test_small_grid(self, capsys, tmp_path):
        assert main(["sweep", "--sizes", "512", "1024", "--ways", "2",
                     "--lines", "16", "--benchmarks", "bs", "fibcall",
                     "--cache", str(tmp_path / "store")]) == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "srb" in output and "rw" in output

    def test_output_file(self, capsys, tmp_path):
        report = tmp_path / "sweep.txt"
        assert main(["sweep", "--sizes", "512", "--ways", "2",
                     "--lines", "16", "--benchmarks", "bs",
                     "--cache", str(tmp_path / "store"),
                     "--output", str(report)]) == 0
        assert "written to" in capsys.readouterr().out
        assert "Pareto front" in report.read_text()

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmarks", "dhrystone"])

    def test_pfail_flag_sets_the_axis(self, capsys, tmp_path):
        assert main(["sweep", "--sizes", "512", "--ways", "2",
                     "--lines", "16", "--benchmarks", "bs",
                     "--pfail", "1e-3",
                     "--cache", str(tmp_path / "store")]) == 0
        output = capsys.readouterr().out
        assert "1e-03" in output and "1e-04" not in output

    def test_cache_off_accepted(self, capsys):
        assert main(["estimate", "bs", "--cache", "off"]) == 0
        capsys.readouterr()


class TestCacheEnvAlias:
    def test_canonical_env_wins_silently(self, monkeypatch, tmp_path):
        """``REPRO_CACHE`` is the only cache variable: the retired
        ``REPRO_SOLVE_CACHE`` name is ignored, without a warning."""
        import pathlib
        import warnings

        from repro.solve.store import CACHE_ENV, cache_root

        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "canonical"))
        monkeypatch.setenv("REPRO_SOLVE_CACHE", str(tmp_path / "legacy"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_root() == tmp_path / "canonical"
            monkeypatch.delenv(CACHE_ENV)
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
            assert cache_root() == \
                pathlib.Path(tmp_path / "xdg" / "repro" / "solve")


class TestOneDriver:
    """``estimate`` runs the suite's task DAG: the two read and write
    the same cell rows."""

    def test_estimate_after_a_suite_does_no_work(self, suite_cache,
                                                 dag_runs, monkeypatch,
                                                 capsys):
        from repro.pwcet import batch
        from repro.solve.store import SolveStore

        folds = []
        fold = batch.penalty_distributions

        def counting(*args, **kwargs):
            folds.append(args)
            return fold(*args, **kwargs)

        monkeypatch.setattr(batch, "penalty_distributions", counting)
        solve_store = SolveStore.resolve(suite_cache).stats
        reads = solve_store.hits + solve_store.misses
        assert main(["estimate", "crc", "--cache", suite_cache]) == 0
        warm = capsys.readouterr().out
        (stats,) = dag_runs
        assert stats.counters["cells_from_store"] == 3
        for counter in ("fixpoints_run", "ilp_solved", "requests",
                        "store_hits", "cells_computed"):
            assert stats.counters[counter] == 0, counter
        assert stats.tasks["solve"] == stats.tasks["cell"] == 0
        assert solve_store.hits + solve_store.misses == reads
        assert folds == []
        assert main(["estimate", "crc", "--cache", "off"]) == 0
        assert capsys.readouterr().out == warm

    def test_suite_after_estimate_reads_its_rows(self, tmp_path,
                                                 dag_runs, capsys):
        cache = str(tmp_path)
        assert main(["estimate", "crc", "--cache", cache]) == 0
        assert main(["suite", "--cache", cache]) == 0
        capsys.readouterr()
        estimate, suite = dag_runs
        assert estimate.counters["cells_computed"] == 3
        assert suite.counters["cells_from_store"] == 3

    @pytest.mark.parametrize("first", ["1e-9", "1e-15"])
    def test_a_stored_row_serves_the_other_level(self, tmp_path, first,
                                                 dag_runs, capsys):
        """An ``srb+`` row stored at either level serves the other: at
        1e-15 the refusal line is the golden one, at 1e-9 the pWCET is
        a storeless run's."""
        command = ["estimate", "ud", "--mechanisms", "srb+",
                   "--probability"]
        golden = (GOLDEN / "cli_estimate_ud.txt").read_text().splitlines()
        expected = {"1e-15": f"{golden[0]}\n{golden[-1]}\n"}
        assert main(command + ["1e-9", "--cache", "off"]) == 0
        expected["1e-9"] = capsys.readouterr().out
        second = "1e-15" if first == "1e-9" else "1e-9"
        for probability in (first, second):
            assert main(command + [probability, "--cache",
                                   str(tmp_path)]) == 0
            assert capsys.readouterr().out == expected[probability]
        assert [stats.counters["cells_from_store"]
                for stats in dag_runs] == [0, 0, 1]


class TestStartup:
    """Commands import only the layers they run."""

    @staticmethod
    def _python(script):
        import os
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, cwd=root)

    def test_import_and_list_leave_scipy_optimize_unloaded(self):
        script = (
            "import sys\n"
            "import repro.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'import'\n"
            "assert repro.cli.main(['list']) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'list'\n")
        run = self._python(script)
        assert run.returncode == 0, run.stderr
        assert "crc" in run.stdout

    def test_import_and_list_load_no_compute_or_store_stack(self):
        script = (
            "import sys\n"
            "import repro.cli\n"
            "assert repro.cli.main(['list']) == 0\n"
            "heavy = ('numpy', 'scipy', 'sqlite3', 'multiprocessing')\n"
            "print(sorted(set(heavy) & set(sys.modules)), "
            "file=sys.stderr)\n")
        run = self._python(script)
        assert run.returncode == 0, run.stderr
        assert run.stderr.splitlines()[-1] == "[]"

    def test_cold_suite_loads_only_the_highs_bindings_of_scipy(self):
        script = (
            "import sys\n"
            "import repro.cli\n"
            "code = repro.cli.main(['suite', '--cache', 'off'])\n"
            "heavy = ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
            "print(sorted(set(heavy) & set(sys.modules)), "
            "file=sys.stderr)\n"
            "sys.exit(code)\n")
        run = self._python(script)
        assert run.returncode == 0, run.stderr
        assert "crc" in run.stdout  # the run really solved
        assert run.stderr.splitlines()[-1] == "[]"

    def test_warm_sweep_loads_no_numpy_and_matches_the_cold_run(
            self, tmp_path):
        command = ["sweep", "--benchmarks", "crc", "--sizes", "512",
                   "--ways", "2", "--lines", "16", "--cache", str(tmp_path)]
        script = (
            "import sys\n"
            "import repro.cli\n"
            f"code = repro.cli.main({command!r})\n"
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)), "
            "file=sys.stderr)\n"
            "sys.exit(code)\n")
        cold = self._python(script)
        warm = self._python(script)
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        assert cold.stderr.splitlines()[-1] == "['numpy']"
        assert warm.stderr.splitlines()[-1] == "[]"
        assert "served by the persistent cell store" in warm.stdout

        def results(text):
            # Counter lines tell cold work from store hits by design.
            return [line for line in text.splitlines()
                    if not line.startswith(("solver:", "analysis:",
                                            "cells:", "distribution:",
                                            "classification:"))]

        assert results(warm.stdout) == results(cold.stdout)

    def test_warm_estimate_loads_no_numpy(self, suite_cache):
        script = (
            "import sys\n"
            "import repro.cli\n"
            "code = repro.cli.main(['estimate', 'crc', '--cache', "
            f"{suite_cache!r}])\n"
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)), "
            "file=sys.stderr)\n"
            "sys.exit(code)\n")
        run = self._python(script)
        assert run.returncode == 0, run.stderr
        assert "benchmark crc" in run.stdout
        assert run.stderr.splitlines()[-1] == "[]"

    def test_every_export_resolves(self):
        import importlib
        import pkgutil
        import types

        import repro

        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg]
        for package in packages:
            for name in getattr(package, "__all__", ()):
                value = getattr(package, name)
                assert not isinstance(value, types.ModuleType), \
                    f"{package.__name__}.{name}"
                assert name in dir(package), f"{package.__name__}.{name}"
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        from repro import PWCETEstimator
        from repro.analysis import CacheAnalysis
        assert PWCETEstimator.__module__ == "repro.pwcet.estimator"
        assert CacheAnalysis.__module__ == "repro.analysis.classify"
