"""Memory references: the unit the cache analysis classifies.

Every instruction fetch is a reference to the memory block containing
the instruction.  A reference is identified by its position in the
CFG — (block id, index within block) — because virtual inlining means
the same address can appear in several contexts with different
classifications.

The (address → memory block) walk depends on the geometry only through
the line size (``block_of`` shifts by the block offset bits), while
the set mapping depends on the set count too.  :func:`block_streams`
walks a CFG once per line size and :func:`all_references` lays one set
mapping over such a stream, so a caller holding several geometries of
one line size pays for the walk once.

Nothing here is memoised: whoever builds a map owns it.  In the
pipeline that is the solve task of one (program, line size):
:func:`~repro.analysis.geometry_batch.grouped_analysis` builds one
stream and one reference map per distinct set count of its group and
hands each map to the analyses of that set count, so every map dies
with the task's analyses even though the CFG itself lives for the
whole run.  :class:`Reference` is frozen and a map may be shared by
several analyses: callers must treat it as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import CacheGeometry
from repro.cfg import CFG

#: Block id → ((address, memory block), ...) in fetch order.
BlockStreams = dict[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Reference:
    """One instruction fetch at a specific CFG position."""

    block_id: int
    index: int
    address: int
    memory_block: int
    set_index: int

    @property
    def key(self) -> tuple[int, int]:
        """CFG position: (block id, instruction index)."""
        return (self.block_id, self.index)


def _stream(cfg: CFG, block_id: int,
            offset_bits: int) -> tuple[tuple[int, int], ...]:
    return tuple((instruction.address, instruction.address >> offset_bits)
                 for instruction in cfg.block(block_id).instructions)


def block_streams(cfg: CFG, geometry: CacheGeometry) -> BlockStreams:
    """The (address, memory block) stream of every block.

    Depends on ``geometry`` only through its line size, so one stream
    serves every geometry of a line-size group.
    """
    offset_bits = geometry.offset_bits
    return {block_id: _stream(cfg, block_id, offset_bits)
            for block_id in cfg.block_ids()}


def _references(block_id: int, stream, set_mask: int
                ) -> tuple[Reference, ...]:
    return tuple(
        Reference(block_id=block_id, index=index, address=address,
                  memory_block=memory_block,
                  set_index=memory_block & set_mask)
        for index, (address, memory_block) in enumerate(stream))


def all_references(cfg: CFG, geometry: CacheGeometry,
                   streams: BlockStreams | None = None
                   ) -> dict[int, tuple[Reference, ...]]:
    """References of every block, keyed by block id.

    ``streams`` is the CFG's :func:`block_streams` at the geometry's
    line size; left at ``None`` it is walked here.
    """
    if streams is None:
        streams = block_streams(cfg, geometry)
    set_mask = geometry.sets - 1
    return {block_id: _references(block_id, stream, set_mask)
            for block_id, stream in streams.items()}
