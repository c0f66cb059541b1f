"""Discrete probability distributions over non-negative integers.

The per-set fault-penalty distributions of the paper have at most
``W + 1`` support points (one per possible number of faulty ways);
the total penalty distribution is their convolution across sets
(Figure 1.b).  We keep exact dense PMFs on an integer grid — penalties
are measured in *misses*, so grids stay small — and convolve with
shifted adds, which is exact (no FFT round-off in the 1e-15 tail the
paper's quantiles live in).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import DistributionError

#: Tolerance on total probability mass.
_MASS_TOLERANCE = 1e-9


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
        #: Lazily computed (or batch-seeded) tail cache; see ccdf().
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

    @classmethod
    def _trusted(cls, pmf: np.ndarray,
                 ccdf: np.ndarray | None = None) -> "DiscreteDistribution":
        """Wrap arrays that are valid by construction, skipping checks.

        Reserved for the batched distribution kernel, whose outputs are
        sums and products of already-validated PMFs (non-negative and
        finite by closure) — re-validating every row would re-read the
        whole block once per check.
        """
        self = cls.__new__(cls)
        self._pmf = pmf
        self._ccdf = ccdf
        return self

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

        Sparse-aware: when one operand has few non-zero points the
        convolution is done with shifted adds (exact and fast for the
        per-set penalty distributions); otherwise ``np.convolve``.
        """
        left, right = self._pmf, other._pmf
        # Use the sparser operand as the shift driver.
        left_nz = np.flatnonzero(left)
        right_nz = np.flatnonzero(right)
        if len(right_nz) < len(left_nz):
            left, right = right, left
            left_nz, right_nz = right_nz, left_nz
        if len(left_nz) <= 64:
            result = np.zeros(len(left) + len(right) - 1)
            for value in left_nz:
                result[value:value + len(right)] += left[value] * right
        else:
            result = np.convolve(left, right)
        return DiscreteDistribution(result, normalized=False)

    @staticmethod
    def convolve_all(distributions: Iterable["DiscreteDistribution"]
                     ) -> "DiscreteDistribution":
        """Convolution of many independent distributions.

        Sets are independent (paper §II-C), so the total fault penalty
        is the convolution of the per-set penalty distributions.

        Reduces in size order (smallest support first, off a heap)
        instead of left-folding in arrival order: folding the small
        operands early keeps the accumulator short for as long as
        possible, which cuts the total shifted-add work (each fold
        costs ``nnz(operand) * len(accumulator)``) by 1.5-3x on the
        suite's per-set penalty PMFs.

        The accumulator is deliberately *not* pushed back into the
        heap: a balanced pairwise reduction would eventually convolve
        two large dense halves — O(n*m) without FFT, and FFT round-off
        is excluded here because the paper's quantiles live in the
        1e-15 tail — whereas size-ordered folding keeps one operand a
        sparse per-set PMF on every step.
        """
        heap: list[tuple[int, int, DiscreteDistribution]] = []
        for order, distribution in enumerate(distributions):
            heap.append((len(distribution._pmf), order, distribution))
        if not heap:
            return DiscreteDistribution.point_mass(0)
        heapq.heapify(heap)
        _, _, result = heapq.heappop(heap)
        while heap:
            _, _, smallest = heapq.heappop(heap)
            result = result.convolve(smallest)
        return result

    def scale_values(self, factor: int) -> "DiscreteDistribution":
        """Distribution of ``factor * X`` (e.g. misses -> cycles)."""
        if factor < 1:
            raise DistributionError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        pmf = np.zeros(self.support_max * factor + 1)
        pmf[::factor] = self._pmf
        return DiscreteDistribution(pmf, normalized=False)

    def shift(self, offset: int) -> "DiscreteDistribution":
        """Distribution of ``X + offset``."""
        if offset < 0:
            raise DistributionError(f"offset must be >= 0, got {offset}")
        if offset == 0:
            return self
        pmf = np.concatenate([np.zeros(offset), self._pmf])
        return DiscreteDistribution(pmf, normalized=False)

    # -- tail queries -------------------------------------------------------
    def ccdf(self) -> np.ndarray:
        """``ccdf[v] = P(X > v)``, computed tail-first for accuracy.

        Summing from the largest value (smallest probabilities in the
        fault setting) avoids float cancellation in the deep tail,
        where the paper's 1e-15 exceedance threshold lives.  Computed
        once and cached (do not mutate the returned array); the
        batched distribution kernel seeds the cache for a whole pfail
        batch from one 2-D suffix-sum via :meth:`_trusted`.
        """
        if self._ccdf is None:
            suffix = np.cumsum(self._pmf[::-1])[::-1]  # P(X >= v)
            ccdf = np.empty_like(suffix)
            ccdf[:-1] = suffix[1:]
            ccdf[-1] = 0.0
            self._ccdf = ccdf
        return self._ccdf

    def quantile_exceedance(self, probability: float) -> int:
        """Smallest ``v`` with ``P(X > v) <= probability``.

        This is the paper's pWCET reading: the value the random
        variable exceeds with probability at most ``p``.  The ccdf is
        exactly non-increasing (suffix sums of non-negative mass), so
        the smallest qualifying value comes from one binary search on
        the reversed tail instead of a full scan.
        """
        if not 0.0 < probability < 1.0:
            raise DistributionError(
                f"exceedance probability must be in (0, 1), "
                f"got {probability}")
        ccdf = self.ccdf()
        # Entries <= probability form a suffix of ccdf, i.e. a prefix
        # of the reversed tail; side="right" counts all of them.
        count = int(np.searchsorted(ccdf[::-1], probability,
                                    side="right"))
        if count == 0:
            # Unreachable by construction (ccdf[support_max] == 0.0
            # <= p); kept as the historical guard against a corrupted
            # tail.
            return self.support_max
        return len(ccdf) - count

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
