"""The stacked age-vector engine vs the dict oracle.

One :class:`~repro.analysis.vectorized.AgeVectorEngine` classifies a
whole line-size group with one Must/May fixpoint pair.  Every
geometry's slice must give the dict Must/May analyses' verdicts at
every associativity, and :func:`grouped_analysis` the oracle's CHMC
tables — on random CFGs and on the sweep grid.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (AgeVectorEngine, CacheAnalysis, MayAnalysis,
                            MustAnalysis)
from repro.analysis.classify import AnalysisStats, SrbHits
from repro.analysis.geometry_batch import (grouped_analysis,
                                           required_classifications)
from repro.analysis.references import all_references
from repro.cache import CacheGeometry
from repro.errors import AnalysisError
from repro.experiments.fig4 import format_fig4, row_of
from repro.experiments.runner import fresh_results, run_suite
from repro.minic import compile_program
from repro.pipeline import PipelineStats
from repro.pipeline.stages import SUITE_MECHANISMS, line_groups
from repro.pwcet import EstimatorConfig
from repro.reliability.srb_analysis import srb_always_hit_references
from repro.suite import EVALUATED_BENCHMARKS, load
from repro.sweep import format_sweep_report, run_sweep
from repro.sweep.grid import geometry_grid
from tests.oracles import oracle_analysis
from tests.strategies import programs

_suppress = [HealthCheck.too_slow]

#: Reports of the per-geometry classify path these groups replaced.
GOLDEN = pathlib.Path(__file__).parent / "golden"

#: A deliberately heterogeneous line-size group: different set counts
#: AND different way counts stacked into one state.
SMALL_GROUP = (
    CacheGeometry(sets=4, ways=2, block_bytes=16),
    CacheGeometry(sets=2, ways=4, block_bytes=16),
    CacheGeometry(sets=8, ways=2, block_bytes=16),
)


def _engine(cfg, group):
    return AgeVectorEngine(cfg, group, all_references(cfg, group[0]))


def assert_stack_matches_oracle(cfg, group):
    """Every slice's verdicts == the dict Must/May at every assoc."""
    engine = _engine(cfg, group)
    for position, geometry in enumerate(group):
        view = engine.geometry_slice(position)
        for assoc in range(1, geometry.ways + 1):
            must = MustAnalysis(cfg, geometry, assoc)
            may = MayAnalysis(cfg, geometry, assoc)
            for block_id in cfg.block_ids():
                assert tuple(view.guaranteed_hits(block_id, assoc)
                             .tolist()) == must.guaranteed_hits(block_id), \
                    f"Must mismatch: {geometry} block {block_id} a={assoc}"
                assert tuple(view.possibly_cached(block_id, assoc)
                             .tolist()) == may.possibly_cached(block_id), \
                    f"May mismatch: {geometry} block {block_id} a={assoc}"
    assert engine.fixpoints_run == 2


def assert_tables_match_oracle(analyses):
    """Each analysis' tables == the dict oracle's, at every assoc."""
    for analysis in analyses:
        geometry = analysis.geometry
        oracle = oracle_analysis(analysis.cfg, geometry)
        for assoc in range(geometry.ways, -1, -1):
            expected = oracle.classification(assoc)
            table = analysis.classification(assoc)
            for block_id in analysis.cfg.block_ids():
                assert table.of_block(block_id) \
                    == expected.of_block(block_id)
        assert analysis.srb_always_hits() == oracle.srb_always_hits()


class TestStackedEngineEquivalence:
    """Property tests: every stacked slice == the dict oracle."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_random_cfgs_small_group(self, program):
        compiled = compile_program(program)
        assert_stack_matches_oracle(compiled.cfg, SMALL_GROUP)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_random_cfgs_tables(self, program):
        cfg = compile_program(program).cfg
        assert_tables_match_oracle(grouped_analysis(
            cfg, SMALL_GROUP[:2], SUITE_MECHANISMS, cache="off"))

    @pytest.mark.parametrize("name", ("bs", "crc", "matmult"))
    def test_default_grid_geometries(self, name):
        """All 16 default grid geometries, stacked per line size."""
        cfg = load(name).cfg
        groups = line_groups(geometry_grid())
        assert sum(len(group) for group in groups) == 16
        for group in groups:
            assert_stack_matches_oracle(cfg, group)

    def test_single_geometry_stack_matches_plain_engine(self):
        """A standalone analysis (its own group of one) and a grouped
        analysis of one geometry both give the oracle's tables."""
        cfg = load("fibcall").cfg
        geometry = SMALL_GROUP[0]
        assert_stack_matches_oracle(cfg, (geometry,))
        assert_tables_match_oracle(
            (CacheAnalysis(cfg, geometry, cache="off"),)
            + grouped_analysis(cfg, (geometry,), SUITE_MECHANISMS,
                               cache="off"))

    def test_mixed_line_sizes_rejected(self):
        cfg = load("fibcall").cfg
        bad = (CacheGeometry(sets=4, ways=2, block_bytes=16),
               CacheGeometry(sets=4, ways=2, block_bytes=32))
        with pytest.raises(AnalysisError):
            _engine(cfg, bad)

    def test_duplicate_geometries_rejected(self):
        cfg = load("fibcall").cfg
        with pytest.raises(AnalysisError):
            _engine(cfg, (SMALL_GROUP[0], SMALL_GROUP[0]))

    def test_empty_group_rejected(self):
        with pytest.raises(AnalysisError):
            AgeVectorEngine(load("fibcall").cfg, (), {})


class TestGroupedAnalysis:
    """The classify-stage entry point: shared stats, store prefill."""

    def test_one_fixpoint_pair_plus_srb_per_group(self):
        cfg = load("crc").cfg
        analysis = grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                                    cache="off")[0]
        # 2 stacked (Must+May) + 1 shared SRB for the whole group.
        assert analysis.stats.fixpoints_run == 3
        assert analysis.stats.classify_batched_rows == len(SMALL_GROUP) - 1
        assert analysis.stats.geometry_groups == 1

    def test_group_of_one_counts_no_batching(self):
        """A single geometry runs the same pair + SRB fixpoint, and
        both batching counters read 0."""
        cfg = load("crc").cfg
        (analysis,) = grouped_analysis(cfg, SMALL_GROUP[:1],
                                       SUITE_MECHANISMS, cache="off")
        counters = analysis.stats.as_dict()
        assert counters["fixpoints_run"] == 3
        assert counters["classify_batched_rows"] == 0
        assert counters["geometry_groups"] == 0

    def test_group_prefills_sibling_store_entries(self, tmp_path):
        """Sibling geometries' tables land under their own keys: a
        later per-geometry analysis is served entirely from the store."""
        cfg = load("fibcall").cfg
        grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                         cache=str(tmp_path))
        for geometry in SMALL_GROUP:
            warm = CacheAnalysis(cfg, geometry, cache=str(tmp_path))
            assocs, needs_srb = required_classifications(
                SUITE_MECHANISMS, geometry.ways)
            for assoc in assocs:
                warm.classification(assoc)
            if needs_srb:
                warm.srb_always_hits()
            assert warm.stats.fixpoints_run == 0
            assert warm.stats.classify_store_misses == 0
            assert warm.stats.classify_store_hits > 0

    def test_group_srb_hits_match_per_geometry(self):
        cfg = load("crc").cfg
        stats = AnalysisStats()
        shared = SrbHits(cfg, 16, stats)()
        for geometry in SMALL_GROUP:
            assert frozenset(shared) == \
                srb_always_hit_references(cfg, geometry)
        assert stats.fixpoints_run == 1


class TestSingleGeometryGroups:
    """Groups of one (the suite; a lone geometry of a line size) run
    the same kernel and print the reports the per-geometry path did."""

    def test_mixed_group_sizes_sweep_report_is_golden(self):
        geometries = (CacheGeometry.from_size(512, 2, 16),
                      CacheGeometry.from_size(1024, 2, 16),
                      CacheGeometry.from_size(1024, 2, 32))
        result = run_sweep(geometries, config=EstimatorConfig(cache="off"),
                           pfails=(1e-4, 1e-3),
                           benchmarks=("bs", "fibcall"))
        assert format_sweep_report(result) + "\n" == \
            (GOLDEN / "mixed_groups_sweep.txt").read_text()
        totals = result.solver_totals
        # Only the 16 B group of two is stacked, once per benchmark.
        assert totals["geometry_groups"] == 2
        assert totals["classify_batched_rows"] == 2
        assert totals["fixpoints_run"] == 2 * 2 * 3

    def test_suite_report_is_golden(self):
        stats = PipelineStats()
        with fresh_results():
            results = run_suite(EstimatorConfig(cache="off"),
                                pipeline_stats=stats)
        assert format_fig4([row_of(result) for result in results]) \
            + "\n" == (GOLDEN / "suite_fig4.txt").read_text()
        totals = stats.counters
        assert totals["fixpoints_run"] == 3 * len(EVALUATED_BENCHMARKS)
        assert totals["geometry_groups"] == 0
        assert totals["classify_batched_rows"] == 0
