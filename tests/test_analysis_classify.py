"""Classification facade: priorities, degraded tables, persistence."""

import pytest

from repro.analysis import CacheAnalysis, Chmc, Classification, GLOBAL_SCOPE
from repro.analysis.persistence import PersistenceAnalysis
from repro.analysis.references import all_references
from repro.cache import CacheGeometry
from repro.errors import AnalysisError
from repro.minic import Compute, Function, Loop, Program, compile_program

GEOMETRY = CacheGeometry(sets=16, ways=4, block_bytes=16)


@pytest.fixture(scope="module")
def tiny_loop():
    """A loop whose footprint fits one way of every set."""
    program = Program([Function("main", [Loop(8, [Compute(10)])])],
                      name="tiny_loop")
    return compile_program(program)


class TestClassificationBasics:
    def test_straight_line_spatial_pattern(self, straight_line_program):
        """In straight-line code the first fetch of each line misses
        and the following fetches of the same line always hit."""
        analysis = CacheAnalysis(straight_line_program.cfg, GEOMETRY)
        table = analysis.classification()
        for reference, classification in table.items():
            line_offset = reference.address % GEOMETRY.block_bytes
            if line_offset == 0:
                assert classification.chmc in (Chmc.ALWAYS_MISS,
                                               Chmc.FIRST_MISS)
            else:
                assert classification.chmc is Chmc.ALWAYS_HIT

    def test_tiny_loop_is_fully_persistent_or_hit(self, tiny_loop):
        analysis = CacheAnalysis(tiny_loop.cfg, GEOMETRY)
        table = analysis.classification()
        histogram = table.count_by_chmc()
        assert histogram.get("not-classified", 0) == 0
        assert histogram.get("always-miss", 0) == 0

    def test_assoc_zero_all_miss(self, tiny_loop):
        analysis = CacheAnalysis(tiny_loop.cfg, GEOMETRY)
        table = analysis.classification(0)
        for _reference, classification in table.items():
            assert classification.chmc is Chmc.ALWAYS_MISS

    def test_assoc_out_of_range(self, tiny_loop):
        analysis = CacheAnalysis(tiny_loop.cfg, GEOMETRY)
        with pytest.raises(AnalysisError):
            analysis.classification(5)
        with pytest.raises(AnalysisError):
            analysis.classification(-1)

    def test_tables_memoised(self, tiny_loop):
        analysis = CacheAnalysis(tiny_loop.cfg, GEOMETRY)
        assert analysis.classification(2) is analysis.classification(2)

    def test_degradation_is_monotone(self, loop_program):
        """Lowering associativity never improves a classification."""
        rank = {Chmc.ALWAYS_HIT: 0, Chmc.FIRST_MISS: 1,
                Chmc.NOT_CLASSIFIED: 2, Chmc.ALWAYS_MISS: 2}
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        tables = [analysis.classification(assoc)
                  for assoc in range(GEOMETRY.ways + 1)]
        for assoc in range(GEOMETRY.ways):
            lower, higher = tables[assoc], tables[assoc + 1]
            for block_id in loop_program.cfg.block_ids():
                for weak, strong in zip(lower.of_block(block_id),
                                        higher.of_block(block_id)):
                    assert rank[weak.chmc] >= rank[strong.chmc]


class TestClassificationDataclass:
    def test_first_miss_requires_scope(self):
        with pytest.raises(ValueError):
            Classification(chmc=Chmc.FIRST_MISS)
        with pytest.raises(ValueError):
            Classification(chmc=Chmc.ALWAYS_HIT, scope=3)

    def test_counts_full_misses(self):
        assert Classification(Chmc.ALWAYS_MISS).counts_full_misses
        assert Classification(Chmc.NOT_CLASSIFIED).counts_full_misses
        assert not Classification(Chmc.ALWAYS_HIT).counts_full_misses
        assert not Classification(Chmc.FIRST_MISS,
                                  scope=GLOBAL_SCOPE).counts_full_misses

    def test_str(self):
        assert "global" in str(Classification(Chmc.FIRST_MISS,
                                              scope=GLOBAL_SCOPE))
        assert str(Classification(Chmc.ALWAYS_HIT)) == "always-hit"


class TestPersistence:
    def test_global_scope_for_small_program(self, tiny_loop):
        analysis = PersistenceAnalysis(
            tiny_loop.cfg, all_references(tiny_loop.cfg, GEOMETRY))
        for set_index in range(GEOMETRY.sets):
            assert analysis.global_conflicts(set_index) <= GEOMETRY.ways

    def test_scope_outermost_first(self):
        """A block accessed in a nested loop that fits everywhere gets
        the outermost (cheapest) persistence scope."""
        program = Program([Function("main", [
            Loop(4, [Compute(2), Loop(3, [Compute(3)])]),
        ])], name="nest")
        compiled = compile_program(program)
        analysis = CacheAnalysis(compiled.cfg, GEOMETRY)
        table = analysis.classification()
        scopes = {classification.scope
                  for _reference, classification in table.items()
                  if classification.chmc is Chmc.FIRST_MISS}
        # Program fits in the cache: everything global-persistent.
        assert scopes <= {GLOBAL_SCOPE}

    def test_conflict_counts_grow_with_scope(self):
        program = Program([Function("main", [
            Compute(40),
            Loop(4, [Compute(8)]),
        ])], name="grow")
        compiled = compile_program(program)
        analysis = PersistenceAnalysis(
            compiled.cfg, all_references(compiled.cfg, GEOMETRY))
        forest = analysis.forest
        [header] = forest.headers()
        for set_index in range(GEOMETRY.sets):
            assert (analysis.loop_conflicts(header, set_index)
                    <= analysis.global_conflicts(set_index))

    def test_zero_assoc_no_scope(self, tiny_loop):
        references = all_references(tiny_loop.cfg, GEOMETRY)
        analysis = PersistenceAnalysis(tiny_loop.cfg, references)
        any_reference = next(refs[0] for refs in references.values()
                             if refs)
        assert analysis.scope_of(any_reference, 0) is None
