"""The command-line interface."""

import pytest

from repro.cli import main


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

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["estimate", "dhrystone"])

    def test_pfail_override(self, capsys):
        assert main(["estimate", "bs", "--pfail", "1e-6"]) == 0
        capsys.readouterr()


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

    def test_fmm(self, capsys):
        assert main(["fmm", "bs"]) == 0
        assert "faulty" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff", "bs"]) == 0
        output = capsys.readouterr().out
        assert "gain/area" in output

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


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


class TestStageTimeoutParsing:
    """``--stage-timeout`` specs must fail loudly: a silently dropped
    budget would green-light an unsupervised overnight run."""

    def retry(self, *specs, max_attempts=None):
        import argparse

        from repro.cli import _retry_from
        return _retry_from(argparse.Namespace(
            max_attempts=max_attempts, stage_timeout=list(specs)))

    @pytest.mark.parametrize("spec", [
        "bogus=2",          # unknown stage name
        "Solve=2",          # names are case-sensitive, like the DAG's
        "0", "-3", "solve=0", "solve=-1",  # non-positive seconds
        "nan", "inf", "solve=nan",         # non-finite seconds
        "solve=abc", "solve=", "",         # unparsable seconds
    ])
    def test_bad_specs_exit_with_a_message(self, spec):
        with pytest.raises(SystemExit, match="--stage-timeout"):
            self.retry(spec)

    def test_unknown_stage_message_lists_the_real_stages(self):
        with pytest.raises(SystemExit, match="one of cell, classify, solve"):
            self.retry("bogus=2")

    @pytest.mark.parametrize("stage", ["sweep-cell", "sweep-cells",
                                       "estimate", "distribution",
                                       "result"])
    def test_stages_the_flat_dag_never_schedules_are_rejected(self,
                                                               stage):
        with pytest.raises(SystemExit, match="unknown stage"):
            self.retry(f"{stage}=2")

    def test_repeated_flags_accumulate_per_stage(self):
        policy = self.retry("solve=2.5", "classify=1.5", "10")
        assert policy.timeout == 10.0
        assert policy.stage_timeouts == {"solve": 2.5, "classify": 1.5}

    def test_last_repeat_of_one_stage_wins(self):
        policy = self.retry("solve=2.5", "solve=7")
        assert policy.stage_timeouts == {"solve": 7.0}

    def test_no_flags_mean_no_policy_override(self):
        assert self.retry() is None

    def test_bad_max_attempts_rejected(self):
        with pytest.raises(SystemExit, match="--max-attempts"):
            self.retry(max_attempts=0)


class TestCacheEnvAlias:
    def test_legacy_env_is_honoured_with_one_warning(self, monkeypatch,
                                                     tmp_path):
        from repro.solve import store as store_module

        monkeypatch.delenv(store_module.CACHE_ENV, raising=False)
        monkeypatch.setenv(store_module.LEGACY_CACHE_ENV,
                           str(tmp_path / "legacy"))
        monkeypatch.setattr(store_module, "_WARNED_LEGACY", False)
        with pytest.warns(DeprecationWarning, match="REPRO_SOLVE_CACHE"):
            assert store_module.cache_env_value() == \
                str(tmp_path / "legacy")
        # Once per process, not once per resolve.
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store_module.cache_env_value() == \
                str(tmp_path / "legacy")

    def test_canonical_env_wins_silently(self, monkeypatch, tmp_path):
        import warnings

        from repro.solve import store as store_module

        monkeypatch.setenv(store_module.CACHE_ENV,
                           str(tmp_path / "canonical"))
        monkeypatch.setenv(store_module.LEGACY_CACHE_ENV,
                           str(tmp_path / "legacy"))
        monkeypatch.setattr(store_module, "_WARNED_LEGACY", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store_module.cache_env_value() == \
                str(tmp_path / "canonical")


class TestStartup:
    """Commands that solve nothing never import scipy's optimizer."""

    def test_import_and_list_leave_scipy_optimize_unloaded(self):
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'import'\n"
            "assert repro.cli.main(['list']) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'list'\n")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, cwd=root)
        assert run.returncode == 0, run.stderr
        assert "crc" in run.stdout
