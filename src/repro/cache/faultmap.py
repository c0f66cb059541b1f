"""Concrete fault maps: which physical cache blocks are faulty.

A fault map records, for every (set, way) frame of a cache, whether the
frame is disabled by a permanent fault.  The analysis side of the
library never needs concrete maps (it works with the probability model
of :mod:`repro.faults`); fault maps exist so the validation simulator
can replay the exact situations the analysis claims to bound.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError


class FaultMap:
    """Set of permanently faulty (set, way) frames of one cache.

    The map is immutable after construction; build variations with
    :meth:`with_faults`.
    """

    def __init__(self, geometry: CacheGeometry,
                 faulty_frames: Iterable[tuple[int, int]] = ()) -> None:
        self._geometry = geometry
        frames = set()
        for set_index, way in faulty_frames:
            self._check_frame(set_index, way)
            frames.add((set_index, way))
        self._frames = frozenset(frames)
        profile = [0] * geometry.sets
        for set_index, _way in frames:
            profile[set_index] += 1
        #: Faulty-way count per set, computed once: the map is immutable.
        self._profile = tuple(profile)

    def _check_frame(self, set_index: int, way: int) -> None:
        geometry = self._geometry
        if not 0 <= set_index < geometry.sets:
            raise ConfigurationError(
                f"set index {set_index} out of range [0, {geometry.sets})")
        if not 0 <= way < geometry.ways:
            raise ConfigurationError(
                f"way {way} out of range [0, {geometry.ways})")

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    @property
    def faulty_frames(self) -> frozenset[tuple[int, int]]:
        return self._frames

    def is_faulty(self, set_index: int, way: int) -> bool:
        """True if frame (set_index, way) is disabled."""
        self._check_frame(set_index, way)
        return (set_index, way) in self._frames

    def faulty_ways_in_set(self, set_index: int) -> int:
        """Number of disabled frames in one set."""
        if not 0 <= set_index < self._geometry.sets:
            raise ConfigurationError(f"set index {set_index} out of range")
        return self._profile[set_index]

    def working_ways_in_set(self, set_index: int) -> int:
        """Number of usable frames in one set."""
        return self._geometry.ways - self.faulty_ways_in_set(set_index)

    def fault_profile(self) -> tuple[int, ...]:
        """Faulty-way count per set, indexable by set number."""
        return self._profile

    def with_faults(self, frames: Iterable[tuple[int, int]]) -> "FaultMap":
        """A new map with additional faulty frames."""
        return FaultMap(self._geometry, set(self._frames) | set(frames))

    @classmethod
    def fault_free(cls, geometry: CacheGeometry) -> "FaultMap":
        """The empty (fault-free) map."""
        return cls(geometry)

    @classmethod
    def whole_set_faulty(cls, geometry: CacheGeometry,
                         set_index: int) -> "FaultMap":
        """Map with every way of ``set_index`` disabled."""
        return cls(geometry,
                   ((set_index, w) for w in range(geometry.ways)))

    @classmethod
    def sample(cls, geometry: CacheGeometry, block_fault_probability: float,
               rng: random.Random, *,
               reliable_ways: int = 0) -> "FaultMap":
        """Draw a random map: each frame fails i.i.d. with ``pbf``.

        ``reliable_ways`` frames per set (ways ``0 .. reliable_ways-1``)
        are hardened and never sampled faulty — this models the RW
        mechanism at the concrete level (faults in the reliable way are
        masked, per the paper's Section III-B1).
        """
        if not 0.0 <= block_fault_probability <= 1.0:
            raise ConfigurationError(
                f"pbf must be in [0, 1], got {block_fault_probability}")
        if not 0 <= reliable_ways <= geometry.ways:
            raise ConfigurationError(
                f"reliable_ways must be in [0, {geometry.ways}]")
        frames = [
            (set_index, way)
            for set_index in range(geometry.sets)
            for way in range(reliable_ways, geometry.ways)
            if rng.random() < block_fault_probability
        ]
        return cls(geometry, frames)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (self._geometry == other._geometry
                and self._frames == other._frames)

    def __hash__(self) -> int:
        return hash((self._geometry, self._frames))

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return (f"FaultMap({len(self._frames)} faulty frames over "
                f"{self._geometry.sets}x{self._geometry.ways})")
