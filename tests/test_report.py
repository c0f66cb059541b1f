"""The one-shot reproduction report and its CLI command."""

import pathlib

import pytest

from repro.cli import main
from repro.experiments.report import full_report, refined_srb_section
from repro.pwcet import EstimatorConfig

#: What ``repro report --cache off --output F`` writes to ``F``.
GOLDEN = pathlib.Path(__file__).parent / "golden" / "report.txt"


@pytest.fixture(scope="module")
def report_text():
    # cache="off", not the session store: the sweep section's solver
    # line counts store hits, which would depend on the tests run first.
    return full_report(EstimatorConfig(cache="off"))


class TestFullReport:
    def test_matches_golden(self, report_text):
        assert report_text + "\n" == GOLDEN.read_text()

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
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--cache", "off",
                     "--output", str(target)]) == 0
        assert "report written" in capsys.readouterr().out
        assert target.read_text() == GOLDEN.read_text()
