"""The one-shot reproduction report and its CLI command."""

import contextlib
import io
import pathlib

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.report import EXTENSION_SUBSET, refined_srb_section
from repro.pwcet import EstimatorConfig
from repro.suite import EVALUATED_BENCHMARKS

#: What ``repro report --cache off --output F`` writes to ``F``.
GOLDEN = pathlib.Path(__file__).parent / "golden" / "report.txt"


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    """One ``repro report --cache off --output F`` run: its stdout, the
    file it wrote and the suite DAGs it ran (benchmark names per run).

    ``--cache off``, not the session store: the sweep section's solver
    line counts store hits, which would depend on the tests run first.
    """
    target = tmp_path_factory.mktemp("report") / "report.md"
    suite_runs = []
    estimation_dag = runner.EstimationDag

    def counting(scheduler, programs, *args, **kwargs):
        suite_runs.append(tuple(programs))
        return estimation_dag(scheduler, programs, *args, **kwargs)

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(stdout):
        patch.setattr(runner, "EstimationDag", counting)
        assert main(["report", "--cache", "off",
                     "--output", str(target)]) == 0
    return stdout.getvalue(), target.read_text(), suite_runs


@pytest.fixture(scope="module")
def report_text(report_run):
    return report_run[1]


class TestFullReport:
    def test_matches_golden(self, report_text):
        assert report_text == GOLDEN.read_text()

    def test_runs_the_suite_once(self, report_run):
        """Figures 3 and 4 and the trade-off table format one
        ``run_suite`` result; the one other suite DAG is the
        refined-SRB table's, over the extension subset."""
        assert report_run[2] == [EVALUATED_BENCHMARKS, EXTENSION_SUBSET]

    def test_contains_every_section(self, report_text):
        for heading in ("Figure 1", "Figure 3", "Figure 4",
                        "refined SRB", "cost trade-off"):
            assert heading in report_text

    def test_contains_gain_summary(self, report_text):
        assert "SRB gain vs no protection" in report_text
        assert "paper: SRB avg 40%" in report_text

    def test_configuration_line(self, report_text):
        assert "pfail = 0.0001" in report_text
        assert "1024B cache" in report_text

    def test_refined_section_floor(self):
        text = refined_srb_section(EstimatorConfig())
        assert "refinement floor" in text
        assert "srb+" in text or "fibcall" in text


class TestReportCommand:
    def test_writes_file(self, report_run):
        # The file's content is pinned by ``test_matches_golden``.
        assert report_run[0].startswith("report written to ")
