"""CFG container: construction, traversal, validation."""

import pytest

from repro.cfg import CFG
from repro.errors import CFGStructureError


def diamond() -> CFG:
    cfg = CFG("diamond")
    for label in ("entry", "left", "right", "exit"):
        cfg.new_block(label)
    cfg.add_edge(0, 1)
    cfg.add_edge(0, 2)
    cfg.add_edge(1, 3)
    cfg.add_edge(2, 3)
    cfg.set_entry(0)
    cfg.set_exit(3)
    return cfg


class TestConstruction:
    def test_duplicate_edge_rejected(self):
        cfg = diamond()
        with pytest.raises(CFGStructureError, match="duplicate edge"):
            cfg.add_edge(0, 1)

    def test_edge_to_unknown_block_rejected(self):
        cfg = diamond()
        with pytest.raises(CFGStructureError):
            cfg.add_edge(0, 99)

    def test_duplicate_block_id_rejected(self):
        from repro.cfg.basic_block import BasicBlock
        cfg = diamond()
        with pytest.raises(CFGStructureError):
            cfg.add_block(BasicBlock(block_id=0, label="again"))

    def test_missing_entry_raises(self):
        cfg = CFG()
        cfg.new_block("a")
        with pytest.raises(CFGStructureError):
            _ = cfg.entry_id

    def test_unknown_block_lookup(self):
        with pytest.raises(CFGStructureError):
            diamond().block(42)


class TestTraversal:
    def test_reverse_postorder_starts_at_entry(self):
        order = diamond().reverse_postorder()
        assert order[0] == 0
        assert order[-1] == 3
        assert set(order) == {0, 1, 2, 3}

    def test_edges_deterministic(self):
        assert diamond().edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_successors_predecessors(self):
        cfg = diamond()
        assert set(cfg.successors(0)) == {1, 2}
        assert set(cfg.predecessors(3)) == {1, 2}

    def test_len_and_instruction_count(self):
        cfg = diamond()
        assert len(cfg) == 4
        assert cfg.instruction_count() == 0


class TestValidation:
    def test_valid_diamond(self):
        diamond().validate()

    def test_unreachable_block_detected(self):
        cfg = diamond()
        cfg.new_block("orphan")
        cfg.add_edge(4, 3)  # reaches exit but nothing reaches it
        with pytest.raises(CFGStructureError, match="unreachable"):
            cfg.validate()

    def test_trapped_block_detected(self):
        cfg = diamond()
        trapped = cfg.new_block("trap")
        cfg.add_edge(1, trapped.block_id)
        with pytest.raises(CFGStructureError, match="cannot reach"):
            cfg.validate()

    def test_entry_with_predecessor_rejected(self):
        cfg = CFG()
        a = cfg.new_block("a")
        b = cfg.new_block("b")
        cfg.add_edge(a.block_id, b.block_id)
        cfg.add_edge(b.block_id, a.block_id)
        cfg.set_entry(a.block_id)
        cfg.set_exit(b.block_id)
        with pytest.raises(CFGStructureError):
            cfg.validate()

    def test_exit_with_successor_rejected(self):
        cfg = CFG()
        a = cfg.new_block("a")
        b = cfg.new_block("b")
        cfg.add_edge(a.block_id, b.block_id)
        cfg.set_entry(a.block_id)
        cfg.set_exit(a.block_id)
        with pytest.raises(CFGStructureError):
            cfg.validate()


class TestDigestMemo:
    """``CFG.digest`` is memoised; every structural edit drops it."""

    def test_repeated_digest_is_served_from_the_memo(self, monkeypatch):
        import hashlib

        cfg = diamond()
        first = cfg.digest()
        # A second call must not hash again.
        monkeypatch.setattr(hashlib, "sha256", None)
        assert cfg.digest() == first

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg.add_edge(1, 2),
        lambda cfg: cfg.new_block("extra"),
        lambda cfg: cfg.set_entry(1),
        lambda cfg: cfg.set_exit(2),
        lambda cfg: setattr(cfg, "name", "renamed"),
    ], ids=["edge", "block", "entry", "exit", "name"])
    def test_an_edit_changes_the_digest(self, edit):
        cfg = diamond()
        before = cfg.digest()
        edit(cfg)
        after = cfg.digest()
        assert after != before
        # The memo now holds the edited CFG's digest.
        assert cfg.digest() == after
        fresh = diamond()
        edit(fresh)
        assert fresh.digest() == after
