"""Equivalence of the age-vector engine with the dict oracle.

The age-vector engine (:mod:`repro.analysis.vectorized`) must produce
*identical* Must/May verdicts — and hence identical CHMC tables — to
the reference dict implementation at **every** associativity, even
though it runs a single fixpoint pair at the nominal associativity and
derives the degraded levels by age thresholding.  Multi-geometry
stacks are pinned against the same oracle in
``tests/test_geometry_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (AgeVectorEngine, CacheAnalysis, MayAnalysis,
                            MustAnalysis)
from repro.analysis.references import all_references
from repro.cache import CacheGeometry
from repro.minic import compile_program
from repro.reliability.srb_analysis import srb_always_hit_references
from repro.suite import load
from tests.oracles import oracle_analysis
from tests.strategies import multi_function_programs, programs

#: Small geometries stress set contention; the paper geometry stresses
#: realistic footprints.
GEOMETRIES = (
    CacheGeometry(sets=4, ways=2, block_bytes=16),
    CacheGeometry(sets=2, ways=4, block_bytes=16),
    CacheGeometry.from_size(1024, 4, 16),
)

_suppress = [HealthCheck.too_slow]


def assert_tables_identical(cfg, geometry):
    """Engine and dict-oracle tables must match reference for reference."""
    engine = CacheAnalysis(cfg, geometry, cache="off")
    oracle = oracle_analysis(cfg, geometry)
    for assoc in range(geometry.ways + 1):
        engine_table = engine.classification(assoc)
        oracle_table = oracle.classification(assoc)
        for (ref_e, cls_e), (ref_o, cls_o) in zip(engine_table.items(),
                                                  oracle_table.items()):
            assert ref_e == ref_o
            assert cls_e == cls_o, (
                f"assoc={assoc} {ref_e}: engine={cls_e} oracle={cls_o}")


def assert_verdicts_identical(cfg, geometry):
    """Raw Must/May verdicts must match at every associativity.

    Sharper than table equality: a persistence scope can mask a May
    disagreement inside a first-miss classification.
    """
    references = all_references(cfg, geometry)
    engine = AgeVectorEngine(cfg, (geometry,),
                             references).geometry_slice(0)
    for assoc in range(1, geometry.ways + 1):
        must = MustAnalysis(cfg, geometry, assoc)
        may = MayAnalysis(cfg, geometry, assoc)
        for block_id in cfg.block_ids():
            assert (tuple(bool(hit) for hit
                          in engine.guaranteed_hits(block_id, assoc))
                    == must.guaranteed_hits(block_id)), \
                f"Must mismatch at block {block_id} assoc {assoc}"
            assert (tuple(bool(hit) for hit
                          in engine.possibly_cached(block_id, assoc))
                    == may.possibly_cached(block_id)), \
                f"May mismatch at block {block_id} assoc {assoc}"
    # The whole sweep above must have cost exactly one fixpoint pair.
    assert engine.fixpoints_run == 2


class TestRandomProgramEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_tables_match_oracle(self, program):
        compiled = compile_program(program)
        for geometry in GEOMETRIES[:2]:
            assert_tables_identical(compiled.cfg, geometry)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_raw_verdicts_match_oracle(self, program):
        compiled = compile_program(program)
        for geometry in GEOMETRIES[:2]:
            assert_verdicts_identical(compiled.cfg, geometry)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=_suppress)
    @given(program=multi_function_programs())
    def test_inlined_calls_match_oracle(self, program):
        compiled = compile_program(program)
        assert_tables_identical(compiled.cfg, GEOMETRIES[0])

    @settings(max_examples=15, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_srb_hits_match_oracle(self, program):
        compiled = compile_program(program)
        geometry = GEOMETRIES[0]
        analysis = CacheAnalysis(compiled.cfg, geometry, cache="off")
        assert analysis.srb_always_hits() == \
            srb_always_hit_references(compiled.cfg, geometry)


class TestSuiteEquivalence:
    """Real benchmark CFGs, including the paper geometry."""

    @pytest.mark.parametrize("name", ("crc", "fibcall", "ud"))
    def test_suite_benchmark_tables(self, name):
        cfg = load(name).cfg
        for geometry in GEOMETRIES:
            assert_tables_identical(cfg, geometry)

    def test_suite_benchmark_srb(self):
        cfg = load("crc").cfg
        geometry = GEOMETRIES[2]
        analysis = CacheAnalysis(cfg, geometry, cache="off")
        assert analysis.srb_always_hits() == \
            srb_always_hit_references(cfg, geometry)


class TestEngineMechanics:
    def test_one_fixpoint_pair_serves_all_associativities(self):
        cfg = load("crc").cfg
        analysis = CacheAnalysis(cfg, GEOMETRIES[2], cache="off")
        for assoc in range(GEOMETRIES[2].ways, -1, -1):
            analysis.classification(assoc)
        # Must + May once; the dict oracle would need 2 per level.
        assert analysis.stats.fixpoints_run == 2
        assert analysis.stats.tables_built == GEOMETRIES[2].ways + 1

    def test_ages_use_compact_dtype(self):
        cfg = load("fibcall").cfg
        geometry = GEOMETRIES[0]
        engine = AgeVectorEngine(cfg, (geometry,),
                                 all_references(cfg, geometry))
        ages = engine.must_ages()
        assert all(block.dtype == np.int8 for block in ages.values())
