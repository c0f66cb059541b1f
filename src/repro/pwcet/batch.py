"""Batched multi-pfail penalty-distribution kernel.

The per-set penalty *points* of the paper's Figure 1.b construction
are a pure function of (FMM, mechanism): ``FMM[s][f]`` never depends
on the cell failure probability — only the eq. 2 / eq. 3 fault-pmf
*weights* do.  A sweep along the pfail axis therefore re-runs the
whole convolution pipeline on identical penalty structure, changing
nothing but a handful of per-fault-count probabilities.

This module exploits that: it builds the penalty structure **once**
per (FMM, mechanism) as a numpy ``(sets × fault-counts)`` matrix,
scatters every pfail row's fault-pmf weights into stacked 2-D per-set
PMF blocks (one row per pfail), and folds the blocks across sets with
row-parallel shifted adds — one pass over the set axis serves every
pfail in the grid.  The final fold result is a single ``(rows ×
support)`` matrix from which all rows' ccdfs come out of **one**
suffix-sum, pre-seeding :meth:`DiscreteDistribution.ccdf` so every
downstream quantile read (`pwcet`, exceedance curves, Pareto points)
is a binary search, not a scan.

Bit-identity discipline
-----------------------

The kernel is asserted byte-identical to the scalar oracle
(:func:`penalty_distribution_scalar`, the historical per-cell loop).
That holds *by construction*, not by tolerance:

* the per-set scatter adds weights in fault-count order — the exact
  accumulation order of the oracle's ``points`` dict;
* blocks fold in the oracle's heap order (support width, then
  insertion order), which is pfail-independent because widths are;
* the shifted add walks the *structural* non-zero columns of the
  driver block in ascending order; rows where a structural column is
  zero add ``0.0 * other`` — a bitwise no-op on the non-negative
  accumulator — so each row sees exactly the adds the oracle issues;
* the driver/strategy choice of :meth:`DiscreteDistribution.convolve`
  (sparser operand drives; dense×dense goes to ``np.convolve``) is
  evaluated per row, and any fold where the rows disagree drops to a
  per-row replica of the scalar arithmetic.  Weight underflow — the
  only way rows can diverge — thus degrades performance, never bits.

Penalty values are *miss counts*, so supports are wide (hundreds of
thousands of cycles on the suite) while each set block holds at most
``ways + 1`` points; the oracle's dense arrays are often > 95 % exact
zeros.  Blocks therefore stay in a sparse (support, values) form while
sparse, folding by pairwise support sums in driver-major order — per
output value that is the identical float addition sequence as the
dense shifted add, minus additions of exact ``0.0`` (bitwise no-ops on
non-negative accumulators).  A block flips to the dense representation
once its support crosses :data:`_DENSE_FRACTION` of its width, and
every value is bitwise the same in either form, so the switch point
affects speed only, never results.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.pwcet.distribution import DiscreteDistribution

#: Shift-driver sparsity bound — mirrors the oracle's
#: :meth:`DiscreteDistribution.convolve` exactly; the two constants
#: must move together or the kernel loses bit-identity.
_SHIFT_DRIVER_MAX_NNZ = 64


def penalty_distribution_scalar(fmm, mechanism, fault_model,
                                sets: int) -> DiscreteDistribution:
    """The scalar oracle: one cell, one pfail, the historical loop.

    Kept verbatim as the property-tested reference the batched kernel
    is asserted bit-identical against; the kernel also falls back to
    it for mechanisms whose fault counts vary along the batch.
    """
    pmf = mechanism.fault_pmf(fault_model)
    per_set = []
    for set_index in range(sets):
        points: dict[int, float] = {}
        for fault_count, probability in pmf.items():
            penalty = fmm.misses(set_index, fault_count)
            points[penalty] = points.get(penalty, 0.0) + probability
        if set(points) == {0}:
            continue  # identity of convolution
        per_set.append(DiscreteDistribution.from_points(points))
    return DiscreteDistribution.convolve_all(per_set)


def penalty_distributions(fmm, mechanism, fault_models, sets: int
                          ) -> list[DiscreteDistribution]:
    """Whole-cache penalty distributions for a batch of pfail rows.

    One :class:`DiscreteDistribution` per fault model, in order —
    bit-identical to calling :func:`penalty_distribution_scalar` per
    row, at the cost of roughly one row.  The penalty matrix is built
    once; only the stacked fault-pmf weights vary along the batch
    axis.
    """
    models = tuple(fault_models)
    if not models:
        return []
    pmfs = [mechanism.fault_pmf(model) for model in models]
    fault_counts = tuple(pmfs[0])
    if any(tuple(pmf) != fault_counts for pmf in pmfs[1:]) \
            or not fault_counts \
            or min(fault_counts) < 0 \
            or max(fault_counts) > fmm.max_fault_count \
            or sets > len(fmm.rows):
        # Mechanisms emit one fault-count sequence per geometry; a
        # custom mechanism that varies it per pfail (or exceeds the
        # FMM columns) falls back to the oracle row by row, which
        # also reproduces its out-of-range error behaviour.
        return [penalty_distribution_scalar(fmm, mechanism, model, sets)
                for model in models]
    # (rows × fault counts) weights; (sets × fault counts) penalties.
    weights = np.array([[pmf[count] for count in fault_counts]
                        for pmf in pmfs], dtype=np.float64)
    penalties = np.asarray(fmm.rows,
                           dtype=np.int64)[:sets, list(fault_counts)]
    block = _fold_structure(penalties, weights)
    if block is None:  # every set all-zero: identity of convolution
        return [DiscreteDistribution.point_mass(0) for _ in models]
    return _wrap_rows(block)


# -- hybrid sparse/dense block representation --------------------------
#: A sparse block densifies once ``support * _DENSE_FRACTION`` reaches
#: its width — below that, folding by pairwise support sums beats the
#: dense shifted add's O(width) column traffic.  A dense fold result
#: drops back to sparse under the same boundary (support density can
#: *fall* as wide sets join: collisions saturate the support while the
#: width keeps growing additively), so every fold runs the algorithm
#: matching its operands' true density.  Purely performance dials:
#: sparse and dense folds produce bitwise-identical values.
_DENSE_FRACTION = 4
_SPARSE_FRACTION = 4


class _Block:
    """Stacked per-set PMF rows, sparse or dense.

    ``vals`` is ``(rows × len(idx))`` against the sorted structural
    support ``idx`` while sparse, or the full ``(rows × width)`` PMF
    matrix once dense (``idx is None``).  ``width`` is always the dense
    support width — the oracle's ``len(pmf)`` heap key.
    """

    __slots__ = ("width", "idx", "vals")

    def __init__(self, width: int, idx: np.ndarray | None,
                 vals: np.ndarray) -> None:
        self.width = width
        self.idx = idx
        self.vals = vals

    def dense(self) -> np.ndarray:
        """The full ``(rows × width)`` PMF matrix of this block."""
        if self.idx is None:
            return self.vals
        out = np.zeros((self.vals.shape[0], self.width))
        out[:, self.idx] = self.vals
        return out


def _maybe_densify(block: _Block) -> _Block:
    if block.idx is not None and \
            len(block.idx) * _DENSE_FRACTION >= block.width:
        return _Block(block.width, None, block.dense())
    return block


# -- per-set scatter and fold ------------------------------------------
def _scatter(penalty_row: np.ndarray, weights: np.ndarray) -> _Block:
    """One set's stacked PMF block: ``pmf[r, penalty] += w[r, f]``.

    Support columns accumulate in fault-count order — the oracle's
    ``points`` dict insertion/accumulation order — so each cell's
    value is the identical float sum.
    """
    idx = np.unique(penalty_row)
    vals = np.zeros((weights.shape[0], len(idx)))
    positions = np.searchsorted(idx, penalty_row)
    for fault_index, position in enumerate(positions):
        vals[:, position] += weights[:, fault_index]
    return _maybe_densify(
        _Block(int(penalty_row.max()) + 1, idx, vals))


def _fold_order(widths) -> list[int]:
    """Set-fold order: the oracle's heap (width, insertion order)."""
    heap = [(width, order) for order, width in enumerate(widths)]
    heapq.heapify(heap)
    return [heapq.heappop(heap)[1] for _ in range(len(heap))]


def _fold_structure(penalties: np.ndarray, weights: np.ndarray
                    ) -> _Block | None:
    """Scatter + heap-ordered fold of every non-trivial set.

    Returns the final folded block, or ``None`` when every set's
    penalties are all zero.
    """
    live = np.flatnonzero(penalties.max(axis=1) > 0)
    if len(live) == 0:
        return None
    blocks = [_scatter(penalties[set_index], weights)
              for set_index in live]
    order = _fold_order(block.width for block in blocks)
    result = blocks[order[0]]
    for position in order[1:]:
        result = _fold_any(result, blocks[position])
    return result


def _fold_any(left: _Block, right: _Block) -> _Block:
    """Fold two blocks, staying sparse while both operands are.

    The sparse fast path declines (returns through the dense route)
    whenever the oracle's per-row driver/strategy choice is not
    uniformly "sparse driver, shifted adds" — the proven dense
    :func:`_fold` then arbitrates per row, including its ``np.convolve``
    and mixed-row fallbacks.
    """
    width = left.width + right.width - 1
    if left.idx is not None and right.idx is not None:
        folded = _fold_sparse(left, right, width)
        if folded is not None:
            if folded.idx is not None:
                return _maybe_densify(folded)
            return _maybe_sparsify(folded)
    return _maybe_sparsify(
        _Block(width, None, _fold(left.dense(), right.dense())))


def _maybe_sparsify(block: _Block) -> _Block:
    """Drop a dense fold result back to sparse when its support
    collapsed (heavy collisions / wide sets joining)."""
    support = np.flatnonzero((block.vals != 0.0).any(axis=0))
    if len(support) * _SPARSE_FRACTION < block.width:
        return _Block(block.width, support,
                      np.ascontiguousarray(block.vals[:, support]))
    return block


def _fold_sparse(left: _Block, right: _Block, width: int
                 ) -> _Block | None:
    """Row-parallel sparse convolution by pairwise support sums.

    Mirrors the dense shifted add exactly: the (per-row) sparser
    operand drives; driver support is walked in ascending order, so
    every output value accumulates its terms in the identical
    sequence.  Terms the dense path adds but this one skips are exact
    ``0.0`` products — bitwise no-ops on non-negative accumulators.
    """
    left_nnz = np.count_nonzero(left.vals, axis=1)
    right_nnz = np.count_nonzero(right.vals, axis=1)
    swap = right_nnz < left_nnz
    if swap.all():
        driver, other, driver_nnz = right, left, right_nnz
    elif not swap.any():
        driver, other, driver_nnz = left, right, left_nnz
    else:
        return None  # rows disagree on the driver: dense arbitration
    if not (driver_nnz <= _SHIFT_DRIVER_MAX_NNZ).all():
        return None  # dense-driver rows: np.convolve territory
    shifted = driver.idx[:, None] + other.idx[None, :]
    if shifted.size * _DENSE_FRACTION >= width:
        # The output can only be dense-ish: merge the pairwise terms
        # straight into the dense grid with one bincount per row.
        # bincount adds its weights sequentially in input order, and
        # the raveled (driver × other) term matrix is driver-major —
        # exactly the dense shifted add's per-value sequence.
        flat = shifted.ravel()
        products = (driver.vals[:, :, None]
                    * other.vals[:, None, :]).reshape(len(left.vals), -1)
        return _Block(width, None, np.stack(
            [np.bincount(flat, weights=products[row], minlength=width)
             for row in range(len(products))]))
    # Sparse output: its support is the union of the driver-shifted
    # copies of the other support.  Each copy is already sorted, so
    # the concatenation is a handful of sorted runs — timsort merges
    # them in near-linear time.
    idx = np.sort(shifted.ravel(), kind="stable")
    if len(idx) > 1:
        idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
    positions = np.searchsorted(idx, shifted)
    # One product tensor; scatter in ascending driver order — within a
    # driver column output positions are distinct, so accumulation per
    # output value runs in exactly the dense shifted-add sequence.
    products = driver.vals[:, :, None] * other.vals[:, None, :]
    vals = np.zeros((left.vals.shape[0], len(idx)))
    for column in range(len(driver.idx)):
        vals[:, positions[column]] += products[:, column, :]
    keep = (vals != 0.0).any(axis=0)
    if not keep.all():  # product underflow: drop structural zeros
        idx = idx[keep]
        vals = np.ascontiguousarray(vals[:, keep])
    return _Block(width, idx, vals)


def _fold(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-parallel convolution of two stacked PMF blocks.

    Replicates :meth:`DiscreteDistribution.convolve` per row: the
    sparser operand drives the shifted adds; a dense driver goes to
    ``np.convolve``.  Uniform rows take the 2-D fast path; mixed rows
    (possible only under weight underflow) replicate the scalar
    arithmetic row by row so bit-identity survives unconditionally.
    """
    rows = left.shape[0]
    left_nnz = np.count_nonzero(left, axis=1)
    right_nnz = np.count_nonzero(right, axis=1)
    swap = right_nnz < left_nnz
    if swap.all():
        driver, other, driver_nnz = right, left, right_nnz
    elif not swap.any():
        driver, other, driver_nnz = left, right, left_nnz
    else:
        return _fold_rows(left, right)
    if (driver_nnz <= _SHIFT_DRIVER_MAX_NNZ).all():
        width = other.shape[1]
        out = np.zeros((rows, left.shape[1] + right.shape[1] - 1))
        # Structural non-zero columns of the driver, ascending — rows
        # where a column underflowed to 0.0 add 0.0 * other, a bitwise
        # no-op on the non-negative accumulator.
        for value in np.flatnonzero((driver != 0.0).any(axis=0)):
            out[:, value:value + width] += driver[:, value:value + 1] \
                * other
        return out
    if (driver_nnz > _SHIFT_DRIVER_MAX_NNZ).all():
        return np.stack([np.convolve(driver[row], other[row])
                         for row in range(rows)])
    return _fold_rows(left, right)


def _fold_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-row scalar replica for folds whose rows disagree on
    strategy — the unconditional bit-identity fallback."""
    out = np.empty((left.shape[0], left.shape[1] + right.shape[1] - 1))
    for row in range(left.shape[0]):
        out[row] = _convolve_pair(left[row], right[row])
    return out


def _convolve_pair(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The oracle's convolution arithmetic on raw 1-D PMF arrays."""
    left_nz = np.flatnonzero(left)
    right_nz = np.flatnonzero(right)
    if len(right_nz) < len(left_nz):
        left, right = right, left
        left_nz = right_nz
    if len(left_nz) <= _SHIFT_DRIVER_MAX_NNZ:
        result = np.zeros(len(left) + len(right) - 1)
        for value in left_nz:
            result[value:value + len(right)] += left[value] * right
        return result
    return np.convolve(left, right)


# -- batched tail reads ------------------------------------------------
def batched_ccdf(block: np.ndarray) -> np.ndarray:
    """Row-wise ``ccdf[r, v] = P(X_r > v)`` from one 2-D suffix-sum.

    Tail-first summation per row, exactly like
    :meth:`DiscreteDistribution.ccdf` — ``np.cumsum`` accumulates
    sequentially along the axis, so each row of the result is bitwise
    the 1-D computation.
    """
    suffix = np.cumsum(block[:, ::-1], axis=1)[:, ::-1]
    ccdf = np.empty_like(block)
    ccdf[:, :-1] = suffix[:, 1:]
    ccdf[:, -1] = 0.0
    return ccdf


def _wrap_rows(block: _Block) -> list[DiscreteDistribution]:
    """Final PMF block → per-row distributions with pre-seeded ccdfs.

    Every row shares the support width (it is a function of the
    pfail-independent penalty structure), so all ccdfs come out of one
    suffix-sum; each distribution's lazy ccdf cache is seeded with its
    row — downstream ``quantile_exceedance`` / exceedance-curve reads
    never recompute the tail.

    A sparse final block computes the suffix-sum over the support only
    and expands it to the dense ccdf with one ``np.repeat`` — between
    support points the dense tail-first cumsum adds exact ``0.0``,
    so the piecewise-constant expansion is bitwise the same values.
    """
    rows = block.vals.shape[0]
    if block.idx is None:
        dense = block.vals
        ccdf = batched_ccdf(dense)
    else:
        idx, vals = block.idx, block.vals
        dense = np.zeros((rows, block.width))
        dense[:, idx] = vals
        tails = np.zeros((rows, len(idx) + 1))
        tails[:, :-1] = np.cumsum(vals[:, ::-1], axis=1)[:, ::-1]
        lengths = np.empty(len(idx) + 1, dtype=np.int64)
        lengths[0] = idx[0]
        lengths[1:-1] = np.diff(idx)
        lengths[-1] = block.width - idx[-1]
        ccdf = np.repeat(tails, lengths, axis=1)
    return [DiscreteDistribution._trusted(dense[row], ccdf[row])
            for row in range(rows)]
