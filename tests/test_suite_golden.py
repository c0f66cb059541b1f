"""Golden regression test of the Figure 4 survey.

Pins the exact pipeline output for every benchmark at the paper's
configuration (1 KB 4-way 16 B LRU, pfail = 1e-4, exceedance 1e-15).
The pipeline is fully deterministic, so any change here is a real
behavioural change — either a bug or an intentional improvement that
must update this table *and* EXPERIMENTS.md.

Each entry: (fault-free WCET, pWCET none, pWCET SRB, pWCET RW,
Figure-4 category).
"""

import pytest

from repro.experiments import run_suite
from repro.experiments.fig4 import classify_category
from repro.suite import EVALUATED_BENCHMARKS

GOLDEN = {
    "adpcm": (1492751, 2942751, 1862751, 1652751, 4),
    "bs": (1708, 5008, 3008, 1708, 2),
    "bsort100": (808923, 16658923, 7768923, 5778923, 4),
    "cnt": (13014, 173614, 86114, 65514, 4),
    "cover": (778224, 1080424, 840524, 834424, 3),
    "crc": (92301, 2012301, 762001, 323101, 4),
    "duff": (4498, 14698, 8398, 8098, 3),
    "edn": (98002, 1524302, 485102, 273902, 4),
    "expint": (37592, 867992, 247792, 128192, 4),
    "fdct": (7313, 30813, 16013, 15013, 4),
    "fft": (51611, 836011, 370311, 283411, 4),
    "fibcall": (1241, 25341, 7441, 1241, 2),
    "fir": (39371, 864971, 263371, 39871, 2),
    "insertsort": (3629, 70229, 28829, 3629, 2),
    "janne_complex": (19102, 748102, 202102, 19102, 2),
    "jfdctint": (9273, 74073, 27473, 18473, 4),
    "lcdnum": (4037, 17337, 9637, 9337, 3),
    "ludcmp": (15011, 162511, 56711, 27811, 4),
    "matmult": (581687, 10669687, 3983987, 3902287, 3),
    "minver": (5523, 34923, 15023, 7923, 4),
    "ns": (45916, 715916, 283416, 223416, 4),
    "nsichneu": (137548, 175748, 137548, 137548, 1),
    "prime": (3862, 62462, 25862, 3862, 2),
    "qurt": (4092, 20092, 8392, 4792, 4),
    "ud": (17309, 182109, 60309, 40209, 4),
}


@pytest.fixture(scope="module")
def results():
    """One default-configuration suite run, keyed by benchmark."""
    return {result.name: result for result in run_suite()}


def test_golden_covers_whole_suite():
    assert set(GOLDEN) == set(EVALUATED_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_reproduces_golden_numbers(name, results):
    expected_ff, expected_none, expected_srb, expected_rw, category = \
        GOLDEN[name]
    result = results[name]
    assert result.wcet_fault_free == expected_ff
    assert result.pwcet("none") == expected_none
    assert result.pwcet("srb") == expected_srb
    assert result.pwcet("rw") == expected_rw
    assert classify_category(expected_ff, expected_none, expected_srb,
                             expected_rw).value == category


def test_golden_table_is_internally_consistent():
    for name, (ff, none, srb, rw, _category) in GOLDEN.items():
        assert ff <= rw <= srb <= none, name


def test_golden_gain_statistics():
    """The headline statistics derived from the pinned numbers."""
    import statistics
    srb_gains = [1 - srb / none
                 for _ff, none, srb, _rw, _c in GOLDEN.values()]
    rw_gains = [1 - rw / none
                for _ff, none, _srb, rw, _c in GOLDEN.values()]
    assert statistics.mean(srb_gains) == pytest.approx(0.552, abs=0.01)
    assert statistics.mean(rw_gains) == pytest.approx(0.696, abs=0.01)
    assert min(srb_gains) == pytest.approx(0.217, abs=0.01)
    assert min(rw_gains) == pytest.approx(0.217, abs=0.01)
