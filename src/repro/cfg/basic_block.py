"""Basic blocks: maximal straight-line instruction sequences."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CFGStructureError
from repro.isa import Instruction, InstructionKind


@dataclass
class BasicBlock:
    """A basic block of the (possibly virtually inlined) CFG.

    Attributes
    ----------
    block_id:
        Unique id within the owning :class:`~repro.cfg.graph.CFG`.
    label:
        Human-readable name (function-qualified).
    instructions:
        The block's instructions, in address order.  May be empty only
        for synthetic entry/exit blocks.
    loop_bound:
        If this block is a loop header, the maximum number of times the
        header may execute *per entry into the loop* (for a classic
        ``for``/``while`` loop with at most N body iterations this is
        ``N + 1``, counting the final failing test).  ``None`` on
        non-header blocks.
    context:
        Call-string context from virtual inlining (empty for the root
        function).  Blocks that share code across contexts have equal
        instruction addresses but distinct contexts.
    """

    block_id: int
    label: str
    instructions: tuple[Instruction, ...] = ()
    loop_bound: int | None = None
    context: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)
        if self.loop_bound is not None and self.loop_bound < 1:
            raise CFGStructureError(
                f"block {self.label!r}: loop bound must be >= 1, "
                f"got {self.loop_bound}")
        for earlier, later in zip(self.instructions, self.instructions[1:]):
            if later.address <= earlier.address:
                raise CFGStructureError(
                    f"block {self.label!r}: instruction addresses must be "
                    "strictly increasing")

    @property
    def addresses(self) -> tuple[int, ...]:
        """Fetch addresses of the block's instructions, in order."""
        return tuple(instruction.address
                     for instruction in self.instructions)

    @property
    def call_target(self) -> str | None:
        """Callee name if the block ends with a call, else ``None``."""
        if (self.instructions
                and self.instructions[-1].kind is InstructionKind.CALL):
            return self.instructions[-1].target
        return None

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

    def qualified_label(self) -> str:
        """Label prefixed with the call context, for diagnostics."""
        if not self.context:
            return self.label
        return "/".join(self.context) + "/" + self.label

    def __str__(self) -> str:
        return (f"BB{self.block_id}[{self.qualified_label()}: "
                f"{self.instruction_count} instrs]")
