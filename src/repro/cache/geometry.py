"""Cache geometry: the (S, W, K) configuration of the paper.

A geometry maps byte addresses to (memory block, set index, tag).  All
analyses and simulators share one geometry object so that the address
arithmetic is written — and tested — exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_positive_int, check_power_of_two, ilog2


@dataclass(frozen=True)
class CacheGeometry:
    """Set-associative cache configuration.

    Parameters
    ----------
    sets:
        Number of sets ``S`` (power of two).
    ways:
        Associativity ``W``.
    block_bytes:
        Cache line size in bytes (power of two).  The paper's ``K`` is
        the line size in *bits*; :attr:`block_bits` exposes that view
        for the fault model of eq. (1).
    """

    sets: int
    ways: int
    block_bytes: int

    def __post_init__(self) -> None:
        check_power_of_two(self.sets, "sets")
        check_positive_int(self.ways, "ways")
        # Validated and derived once: ``block_of`` runs on every
        # simulated fetch.  Not a field, so equality, hashing and repr
        # see only the three parameters (and ``__reduce__`` pickles
        # only them).
        object.__setattr__(self, "_offset_bits",
                           ilog2(self.block_bytes, "block_bytes"))

    def __reduce__(self):
        return type(self), (self.sets, self.ways, self.block_bytes)

    @classmethod
    def from_size(cls, total_bytes: int, ways: int,
                  block_bytes: int) -> "CacheGeometry":
        """Build a geometry from total capacity, e.g. 1 KB / 4 / 16."""
        check_power_of_two(total_bytes, "total_bytes")
        check_positive_int(ways, "ways")
        check_power_of_two(block_bytes, "block_bytes")
        per_way = total_bytes // ways
        if per_way == 0 or per_way % block_bytes:
            from repro.errors import ConfigurationError
            raise ConfigurationError(
                f"capacity {total_bytes}B not divisible into {ways} ways of "
                f"{block_bytes}B lines")
        return cls(sets=per_way // block_bytes, ways=ways,
                   block_bytes=block_bytes)

    @property
    def total_bytes(self) -> int:
        """Total data capacity in bytes."""
        return self.sets * self.ways * self.block_bytes

    @property
    def block_bits(self) -> int:
        """Line size in bits — the paper's ``K`` in eq. (1)."""
        return self.block_bytes * 8

    @property
    def offset_bits(self) -> int:
        return self._offset_bits

    @property
    def index_bits(self) -> int:
        return ilog2(self.sets, "sets")

    def block_of(self, address: int) -> int:
        """Memory-block number containing ``address``."""
        return address >> self._offset_bits

    def set_of(self, address: int) -> int:
        """Cache-set index of ``address``."""
        return self.block_of(address) & (self.sets - 1)

    def set_of_block(self, block: int) -> int:
        """Cache-set index of a memory block number."""
        return block & (self.sets - 1)

    def tag_of(self, address: int) -> int:
        """Tag of ``address`` (block number with index bits stripped)."""
        return self.block_of(address) >> self.index_bits

    def block_base_address(self, block: int) -> int:
        """First byte address of a memory block."""
        return block << self._offset_bits

    def __str__(self) -> str:
        return (f"{self.total_bytes}B cache, {self.sets} sets x "
                f"{self.ways} ways x {self.block_bytes}B lines (LRU)")
