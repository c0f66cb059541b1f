"""Discrete probability distributions over non-negative integers.

The per-set fault-penalty distributions of the paper have at most
``W + 1`` support points (one per possible number of faulty ways);
the total penalty distribution is their convolution across sets
(Figure 1.b), computed by :mod:`repro.pwcet.batch`.  We keep dense
PMFs on an integer grid — penalties are measured in *misses*, so
grids stay small — and convolve by direct sums (no FFT round-off in
the 1e-15 tail the paper's quantiles live in).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import DistributionError

#: Tolerance on total probability mass.
_MASS_TOLERANCE = 1e-9

#: Suffix sums per chunk of the top-down quantile scan.
_SCAN_CHUNK = 65536


class DiscreteDistribution:
    """An exact PMF over ``{0, 1, ..., n}`` (values are e.g. miss counts)."""

    __slots__ = ("_pmf", "_ccdf")

    def __init__(self, pmf: np.ndarray | Iterable[float], *,
                 normalized: bool = True) -> None:
        array = np.asarray(pmf, dtype=np.float64)
        if array.ndim != 1 or array.size == 0:
            raise DistributionError("pmf must be a non-empty 1-D array")
        if np.any(array < 0.0) or not np.all(np.isfinite(array)):
            raise DistributionError("pmf entries must be finite and >= 0")
        if normalized:
            mass = float(array.sum())
            if abs(mass - 1.0) > _MASS_TOLERANCE:
                raise DistributionError(
                    f"pmf mass {mass} deviates from 1 by more than "
                    f"{_MASS_TOLERANCE}")
        self._pmf = array
        #: Lazily computed tail cache; see ccdf().
        self._ccdf: np.ndarray | None = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def point_mass(cls, value: int = 0) -> "DiscreteDistribution":
        if value < 0:
            raise DistributionError(f"negative value {value}")
        pmf = np.zeros(value + 1)
        pmf[value] = 1.0
        return cls(pmf)

    @classmethod
    def from_points(cls, points: Mapping[int, float], *,
                    normalized: bool = True) -> "DiscreteDistribution":
        """Build from sparse {value: probability} points."""
        if not points:
            raise DistributionError("no support points")
        top = max(points)
        if min(points) < 0:
            raise DistributionError("negative support value")
        pmf = np.zeros(top + 1)
        # One vectorised scatter.  np.add.at accumulates duplicate
        # indices sequentially in array order, which matches the old
        # Python loop's accumulation order bit for bit (a Mapping's
        # keys are unique, but nothing here needs to rely on that).
        items = list(points.items())
        np.add.at(pmf,
                  np.fromiter((value for value, _ in items),
                              dtype=np.int64, count=len(items)),
                  np.fromiter((probability for _, probability in items),
                              dtype=np.float64, count=len(items)))
        return cls(pmf, normalized=normalized)

    # -- basic accessors --------------------------------------------------
    @property
    def pmf(self) -> np.ndarray:
        """The PMF array (do not mutate)."""
        return self._pmf

    @property
    def support_max(self) -> int:
        return len(self._pmf) - 1

    @property
    def total_mass(self) -> float:
        return float(self._pmf.sum())

    def probability_of(self, value: int) -> float:
        if not 0 <= value <= self.support_max:
            return 0.0
        return float(self._pmf[value])

    def mean(self) -> float:
        return float(np.dot(self._pmf, np.arange(len(self._pmf))))

    # -- operations -------------------------------------------------------
    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Distribution of the sum of two independent variables.

        A direct sum (``np.convolve``), never an FFT, whose round-off
        would reach the 1e-15 tail.
        """
        return DiscreteDistribution(np.convolve(self._pmf, other._pmf),
                                    normalized=False)

    # -- tail queries -------------------------------------------------------
    def ccdf(self) -> np.ndarray:
        """``ccdf[v] = P(X > v)``, computed tail-first for accuracy.

        Summing from the largest value (smallest probabilities in the
        fault setting) avoids float cancellation in the deep tail,
        where the paper's 1e-15 exceedance threshold lives.  Computed
        once and cached (do not mutate the returned array).
        """
        if self._ccdf is None:
            ccdf = np.empty_like(self._pmf)
            # Written in place, back to front: no full-width temporary.
            np.cumsum(self._pmf[:0:-1], out=ccdf[-2::-1])
            ccdf[-1] = 0.0
            self._ccdf = ccdf
        return self._ccdf

    def quantile_exceedance(self, probability: float) -> int:
        """Smallest ``v`` with ``P(X > v) <= probability``.

        This is the paper's pWCET reading: the value the random
        variable exceeds with probability at most ``p``.  The ccdf is
        exactly non-increasing (suffix sums of non-negative mass), so
        the answer sits just above the top-most value whose tail
        exceeds ``p``.  The suffix sums are scanned from the top in
        chunks of :data:`_SCAN_CHUNK`, stopping at the crossing, so no
        full-width tail is built.  Each chunk carries the running sum
        into its first element before its in-place ``np.cumsum``, so
        every suffix sum is bitwise :meth:`ccdf`'s.
        """
        if not 0.0 < probability < 1.0:
            raise DistributionError(
                f"exceedance probability must be in (0, 1), "
                f"got {probability}")
        # tail[i] = pmf[n - 1 - i]; its running sum is ccdf[n - 2 - i].
        tail = self._pmf[:0:-1]
        sums = np.empty(min(len(tail), _SCAN_CHUNK))
        running = 0.0
        for start in range(0, len(tail), _SCAN_CHUNK):
            chunk = sums[:min(len(tail) - start, _SCAN_CHUNK)]
            np.copyto(chunk, tail[start:start + len(chunk)])
            chunk[0] += running
            np.cumsum(chunk, out=chunk)
            below = int(np.searchsorted(chunk, probability, side="right"))
            if below < len(chunk):
                return len(tail) - start - below
            running = chunk[-1]
        return 0

    # -- dunder -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        if len(self._pmf) != len(other._pmf):
            return False
        return bool(np.array_equal(self._pmf, other._pmf))

    def __repr__(self) -> str:
        return (f"DiscreteDistribution(support=[0, {self.support_max}], "
                f"mass={self.total_mass:.12g})")
