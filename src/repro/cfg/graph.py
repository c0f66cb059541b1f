"""The control-flow graph container.

A :class:`CFG` owns basic blocks and directed edges between them, with
a unique entry block and a unique exit block.  It is built mutably
(``add_block`` / ``add_edge``) and then treated as read-only by the
analyses; :meth:`CFG.validate` checks the structural requirements the
analyses rely on.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cfg.basic_block import BasicBlock
from repro.errors import CFGStructureError

#: A CFG edge as a (source block id, destination block id) pair.
Edge = tuple[int, int]


class CFG:
    """Directed control-flow graph with unique entry and exit blocks."""

    def __init__(self, name: str = "cfg") -> None:
        self.name = name
        self._blocks: dict[int, BasicBlock] = {}
        self._successors: dict[int, list[int]] = {}
        self._predecessors: dict[int, list[int]] = {}
        self._entry_id: int | None = None
        self._exit_id: int | None = None
        self._next_id = 0
        #: ``(name, digest)`` memo of :meth:`digest`; structural edits
        #: drop it (the name is checked on read, being a plain field).
        self._digest: tuple[str, str] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_block(self, label: str, instructions=(), *,
                  loop_bound: int | None = None,
                  context: tuple[str, ...] = ()) -> BasicBlock:
        """Create, register and return a fresh block."""
        block = BasicBlock(block_id=self._next_id, label=label,
                           instructions=tuple(instructions),
                           loop_bound=loop_bound, context=tuple(context))
        self._next_id += 1
        self.add_block(block)
        return block

    def add_block(self, block: BasicBlock) -> None:
        if block.block_id in self._blocks:
            raise CFGStructureError(f"duplicate block id {block.block_id}")
        self._blocks[block.block_id] = block
        self._successors[block.block_id] = []
        self._predecessors[block.block_id] = []
        self._next_id = max(self._next_id, block.block_id + 1)
        self._digest = None

    def add_edge(self, src: int, dst: int) -> None:
        if src not in self._blocks or dst not in self._blocks:
            raise CFGStructureError(f"edge ({src}, {dst}) references "
                                    "unknown block")
        if dst in self._successors[src]:
            raise CFGStructureError(f"duplicate edge ({src}, {dst})")
        self._successors[src].append(dst)
        self._predecessors[dst].append(src)
        self._digest = None

    def set_entry(self, block_id: int) -> None:
        if block_id not in self._blocks:
            raise CFGStructureError(f"unknown entry block {block_id}")
        self._entry_id = block_id
        self._digest = None

    def set_exit(self, block_id: int) -> None:
        if block_id not in self._blocks:
            raise CFGStructureError(f"unknown exit block {block_id}")
        self._exit_id = block_id
        self._digest = None

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def entry_id(self) -> int:
        if self._entry_id is None:
            raise CFGStructureError(f"CFG {self.name!r} has no entry block")
        return self._entry_id

    @property
    def exit_id(self) -> int:
        if self._exit_id is None:
            raise CFGStructureError(f"CFG {self.name!r} has no exit block")
        return self._exit_id

    def block(self, block_id: int) -> BasicBlock:
        try:
            return self._blocks[block_id]
        except KeyError as exc:
            raise CFGStructureError(f"unknown block id {block_id}") from exc

    @property
    def blocks(self) -> dict[int, BasicBlock]:
        """Mapping of id to block (treat as read-only)."""
        return self._blocks

    def block_ids(self) -> tuple[int, ...]:
        return tuple(self._blocks)

    def successors(self, block_id: int) -> tuple[int, ...]:
        return tuple(self._successors[block_id])

    def predecessors(self, block_id: int) -> tuple[int, ...]:
        return tuple(self._predecessors[block_id])

    def edges(self) -> list[Edge]:
        """All edges, in deterministic order."""
        return [(src, dst)
                for src in sorted(self._successors)
                for dst in self._successors[src]]

    def __len__(self) -> int:
        return len(self._blocks)

    def instruction_count(self) -> int:
        """Total instructions over all blocks (contexts counted once each)."""
        return sum(block.instruction_count
                   for block in self._blocks.values())

    def distinct_addresses(self) -> set[int]:
        """Distinct fetch addresses (shared across inlined contexts)."""
        return {address for block in self._blocks.values()
                for address in block.addresses}

    def digest(self) -> str:
        """Content digest of everything the analyses read off the CFG.

        Covers block ids, instruction addresses/sizes/kinds, call
        targets, loop bounds, inlining contexts, the edge list and the
        entry/exit designation — i.e. the full input of the cache
        analyses and of the IPET flow polytope.  Two CFGs with equal
        digests produce identical classifications (for a given
        geometry) and an identical polytope, which is what lets the
        persistent solve cache (:mod:`repro.solve.store`) key solved
        objectives across runs.  Labels are excluded: they are
        diagnostics only.  Memoised until the next structural edit
        through the builders above (registered blocks are never edited
        in place).
        """
        if self._digest is not None and self._digest[0] == self.name:
            return self._digest[1]
        import hashlib

        hasher = hashlib.sha256()

        def feed(*parts: object) -> None:
            hasher.update(repr(parts).encode("utf-8"))

        feed("cfg", self.name, self._entry_id, self._exit_id)
        for block_id in sorted(self._blocks):
            block = self._blocks[block_id]
            feed("block", block_id, block.loop_bound, block.context)
            for instruction in block.instructions:
                feed(instruction.address, instruction.kind.value,
                     instruction.target)
        for edge in self.edges():
            feed("edge", edge)
        self._digest = (self.name, hasher.hexdigest())
        return self._digest[1]

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder from the entry (stable)."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, Iterator[int]]] = []
        seen.add(self.entry_id)
        stack.append((self.entry_id, iter(self._successors[self.entry_id])))
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self._successors[succ])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def reachable_from_entry(self) -> set[int]:
        return set(self.reverse_postorder())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants required by the analyses.

        * entry and exit are set; the entry has no predecessors and the
          exit has no successors;
        * every block is reachable from the entry;
        * the exit is reachable from every block (no trapped states).
        """
        entry, exit_ = self.entry_id, self.exit_id
        if self._predecessors[entry]:
            raise CFGStructureError("entry block must have no predecessors")
        if self._successors[exit_]:
            raise CFGStructureError("exit block must have no successors")
        reachable = self.reachable_from_entry()
        unreachable = set(self._blocks) - reachable
        if unreachable:
            raise CFGStructureError(
                f"unreachable blocks: {sorted(unreachable)}")
        # Reverse reachability from the exit.
        co_reachable: set[int] = {exit_}
        worklist = [exit_]
        while worklist:
            node = worklist.pop()
            for pred in self._predecessors[node]:
                if pred not in co_reachable:
                    co_reachable.add(pred)
                    worklist.append(pred)
        stuck = set(self._blocks) - co_reachable
        if stuck:
            raise CFGStructureError(
                f"blocks cannot reach the exit: {sorted(stuck)}")

    def __str__(self) -> str:
        return (f"CFG({self.name!r}: {len(self._blocks)} blocks, "
                f"{sum(map(len, self._successors.values()))} edges)")
