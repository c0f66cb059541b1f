"""Dominators and natural-loop detection.

The IPET loop-bound constraints and the persistence analysis both need
the loop nesting forest: which blocks belong to which loop, the loop
entry edges and the per-entry iteration bound (carried as an annotation
on the header block by the MiniC compiler, or set by hand on hand-built
CFGs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import CFG, Edge
from repro.errors import CFGStructureError


def compute_dominators(cfg: CFG) -> dict[int, set[int]]:
    """Dominator sets per block (classic iterative data-flow solution).

    ``d in dominators[b]`` iff every path from the entry to ``b`` goes
    through ``d``.  Every block dominates itself.
    """
    order = cfg.reverse_postorder()
    all_blocks = set(order)
    entry = cfg.entry_id
    dominators: dict[int, set[int]] = {
        block_id: (set(all_blocks) if block_id != entry else {entry})
        for block_id in order
    }
    changed = True
    while changed:
        changed = False
        for block_id in order:
            if block_id == entry:
                continue
            preds = [p for p in cfg.predecessors(block_id) if p in all_blocks]
            if preds:
                new = set.intersection(*(dominators[p] for p in preds))
            else:
                new = set()
            new.add(block_id)
            if new != dominators[block_id]:
                dominators[block_id] = new
                changed = True
    return dominators


@dataclass
class Loop:
    """A natural loop.

    Attributes
    ----------
    header:
        Header block id (loops sharing a header are merged).
    body:
        Ids of all blocks in the loop, header included.
    back_edges:
        Edges from the body to the header.
    bound:
        Maximum header executions per loop entry (from the header
        block's ``loop_bound`` annotation).
    parent:
        Immediately enclosing loop's header id, or ``None``.
    depth:
        Nesting depth (outermost loop = 1).
    """

    header: int
    body: frozenset[int]
    back_edges: tuple[Edge, ...]
    bound: int
    parent: int | None = None
    depth: int = 1
    children: list[int] = field(default_factory=list)

    def entry_edges(self, cfg: CFG) -> tuple[Edge, ...]:
        """Edges entering the loop from the outside (into the header)."""
        return tuple((pred, self.header)
                     for pred in cfg.predecessors(self.header)
                     if pred not in self.body)

    def contains(self, block_id: int) -> bool:
        return block_id in self.body


class LoopForest:
    """The loop nesting forest of a CFG."""

    def __init__(self, cfg: CFG, loops: dict[int, Loop]) -> None:
        self._cfg = cfg
        self._loops = loops  # keyed by header id
        self._membership: dict[int, list[int]] = {}
        for header, loop in loops.items():
            for block_id in loop.body:
                self._membership.setdefault(block_id, []).append(header)
        # Order memberships innermost-first for quick scope lookups.
        for block_id, headers in self._membership.items():
            headers.sort(key=lambda h: -loops[h].depth)
        self._chains: dict[int, tuple[Loop, ...]] = {}

    @property
    def loops(self) -> dict[int, Loop]:
        """All loops, keyed by header block id (treat as read-only)."""
        return self._loops

    def loop(self, header: int) -> Loop:
        try:
            return self._loops[header]
        except KeyError as exc:
            raise CFGStructureError(f"no loop with header {header}") from exc

    def loops_containing(self, block_id: int) -> tuple[Loop, ...]:
        """Loops containing ``block_id``, innermost first."""
        chain = self._chains.get(block_id)
        if chain is None:
            chain = self._chains[block_id] = tuple(
                self._loops[h]
                for h in self._membership.get(block_id, ()))
        return chain

    def is_back_edge(self, edge: Edge) -> bool:
        src, dst = edge
        loop = self._loops.get(dst)
        return loop is not None and (src, dst) in loop.back_edges

    def headers(self) -> tuple[int, ...]:
        return tuple(sorted(self._loops))

    def __len__(self) -> int:
        return len(self._loops)


def find_loops(cfg: CFG) -> LoopForest:
    """Detect natural loops and assemble the nesting forest.

    Back edges are edges ``u -> h`` where ``h`` dominates ``u``.  All
    back edges to the same header are merged into one loop.  Every
    header must carry a ``loop_bound`` annotation; an unannotated
    header is a hard error because IPET would be unbounded.

    Irreducible graphs (a cycle whose "header" does not dominate the
    rest of the cycle) are rejected: the MiniC compiler never produces
    them, and the analyses do not support them.
    """
    dominators = compute_dominators(cfg)
    back_edges_by_header: dict[int, list[Edge]] = {}
    for src, dst in cfg.edges():
        if dst in dominators[src]:
            back_edges_by_header.setdefault(dst, []).append((src, dst))

    loops: dict[int, Loop] = {}
    for header, back_edges in back_edges_by_header.items():
        body = {header}
        worklist = [src for src, _dst in back_edges]
        while worklist:
            node = worklist.pop()
            if node in body:
                continue
            body.add(node)
            worklist.extend(cfg.predecessors(node))
        bound = cfg.block(header).loop_bound
        if bound is None:
            raise CFGStructureError(
                f"loop header {cfg.block(header)} lacks a loop bound")
        loops[header] = Loop(header=header, body=frozenset(body),
                             back_edges=tuple(sorted(back_edges)),
                             bound=bound)

    _reject_irreducible(cfg, dominators, loops)
    _link_nesting(loops)
    return LoopForest(cfg, loops)


def _reject_irreducible(cfg: CFG, dominators: dict[int, set[int]],
                        loops: dict[int, Loop]) -> None:
    """Detect cycles not captured by any natural loop.

    In a reducible CFG every cycle contains exactly one back edge (to
    its dominating header).  We check that removing all detected back
    edges leaves an acyclic graph.
    """
    removed = {edge for loop in loops.values() for edge in loop.back_edges}
    indegree = {block_id: 0 for block_id in cfg.block_ids()}
    for src, dst in cfg.edges():
        if (src, dst) not in removed:
            indegree[dst] += 1
    queue = [b for b, deg in indegree.items() if deg == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for succ in cfg.successors(node):
            if (node, succ) in removed:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if visited != len(cfg):
        raise CFGStructureError(
            f"CFG {cfg.name!r} is irreducible (cycle without a dominating "
            "header)")


def _link_nesting(loops: dict[int, Loop]) -> None:
    """Fill parent/children/depth by body inclusion."""
    headers = sorted(loops, key=lambda h: len(loops[h].body))
    for header in headers:
        loop = loops[header]
        best: Loop | None = None
        for other_header in headers:
            if other_header == header:
                continue
            other = loops[other_header]
            if header in other.body and loop.body < other.body:
                if best is None or len(other.body) < len(best.body):
                    best = other
        if best is not None:
            loop.parent = best.header
            best.children.append(header)
    # Depths: walk up the parent chain.
    for loop in loops.values():
        depth = 1
        cursor = loop.parent
        while cursor is not None:
            depth += 1
            cursor = loops[cursor].parent
        loop.depth = depth
