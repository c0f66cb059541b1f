"""Geometry grids for design-stage exploration sweeps.

The paper evaluates one fixed instruction cache (1 KB, 4-way, 16 B
lines).  The sweep service fans the whole estimation pipeline out over
a (geometry × pfail) grid so a hardware designer can compare fault
tolerance mechanisms *across* cache organisations — the pre-silicon
exploration workload of Lee et al. (arXiv:2302.10288).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError

#: Default axes: 4 capacities x 2 associativities x 2 line sizes
#: = 16 geometries around the paper's 1 KB / 4-way / 16 B point.
DEFAULT_SIZES = (512, 1024, 2048, 4096)
DEFAULT_WAYS = (2, 4)
DEFAULT_LINES = (16, 32)
DEFAULT_PFAILS = (1e-4,)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a cache organisation plus a cell failure rate."""

    geometry: CacheGeometry
    pfail: float

    @property
    def label(self) -> str:
        return (f"{self.geometry.total_bytes}B/"
                f"{self.geometry.ways}w/{self.geometry.block_bytes}B"
                f"@pfail={self.pfail:g}")


def geometry_grid(sizes: tuple[int, ...] = DEFAULT_SIZES,
                  ways: tuple[int, ...] = DEFAULT_WAYS,
                  lines: tuple[int, ...] = DEFAULT_LINES
                  ) -> tuple[CacheGeometry, ...]:
    """The cross product of the axes, dropping infeasible combinations.

    A combination is infeasible when the capacity does not divide into
    the requested ways and line size (e.g. 512 B in 8 ways of 128 B
    lines); those are skipped silently so callers can pass coarse
    axis lists.
    """
    geometries = []
    for size in sizes:
        for way_count in ways:
            for line in lines:
                try:
                    geometries.append(
                        CacheGeometry.from_size(size, way_count, line))
                except ConfigurationError:
                    continue
    if not geometries:
        raise ConfigurationError(
            f"no feasible geometry in sizes={sizes} ways={ways} "
            f"lines={lines}")
    return tuple(geometries)


def sweep_cells(geometries: tuple[CacheGeometry, ...],
                pfails: tuple[float, ...] = DEFAULT_PFAILS
                ) -> tuple[SweepCell, ...]:
    """All (geometry, pfail) cells, geometry-major (the report's order).

    Cells that differ only in ``pfail`` share every ILP objective (the
    failure rate touches only the probability weighting, never the
    flow polytope): the sweep solves them once, in the solve task of
    their (benchmark, line size), and one cells task per (benchmark,
    geometry) batches their pfail axis.
    """
    return tuple(SweepCell(geometry=geometry, pfail=pfail)
                 for geometry in geometries for pfail in pfails)
