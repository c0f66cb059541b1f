"""The penalty-convolution kernel: one dense fold over a pfail batch.

The paper's pWCET is one convolution (Figure 1.b): set ``s`` with
``f`` faulty blocks costs ``FMM[s][f]`` misses with the eq. 2 / eq. 3
probability of ``f``, sets are independent, so the whole-cache penalty
distribution is the convolution of the per-set ones.  The penalties
are pfail-independent; only the fault-pmf weights move along a
sweep's pfail axis.  The kernel therefore folds every pfail row at
once in one preallocated ``(rows × width)`` buffer: each set's
distinct penalties (at most ``W + 1``) drive one shifted add each,
scaled by that row's weight, so every row's arithmetic is independent
of the other rows.

The fold runs in place.  Sets fold in ascending width order; each
set rewrites the buffer in descending column chunks of
:data:`_CHUNK`, because a column's new value reads only columns at or
below it.  A chunk's sum builds in a chunk-wide scratch row, its terms
added in ascending penalty order, then overwrites the chunk.  There
is no FFT: its round-off would reach the 1e-15 tail the paper's
quantiles live in.

A caller that reads quantiles only at exceedance levels of at least
``exceedance`` (the cells stage) need not pay for the whole support.
The kernel then folds the law of ``min(X, C)``, where the cap ``C``
comes from a Chernoff bound, ``P(X >= C) <= exp(K(t) - t C)`` with
``K`` the cumulant generating function (:func:`_chernoff_cap`).  Below
``C`` every row is bitwise the uncapped pmf, since each column sums
the same terms in the same order.  The last bin holds the mass at and
above ``C``.  The cap is certified after the fold: if any row's last
bin exceeds ``exceedance``, the call is refolded uncapped, so the
bound is never trusted blindly.  A capped row's tail sums are not
bitwise the uncapped ones (the last bin is summed in another order),
but its quantiles at levels of at least ``exceedance`` meet the same
exact-rational contract.

The contract is the exact-rational one: every quantile equals the
quantile of the same convolution in ``fractions.Fraction`` arithmetic
over the float weights (checked in ``tests/test_distribution_batch.py``
and, for the whole suite, by ``tests/exact_suite.py``).
"""

from __future__ import annotations

import numpy as np

from repro.pwcet.distribution import DiscreteDistribution

#: Columns per chunk of the in-place fold: bounds the scratch rows.
_CHUNK = 65536

#: The Chernoff parameters tried, in units of 1 / (largest penalty).
_T_GRID = np.geomspace(1e-3, 1e3, 97)


def penalty_distributions(fmm, mechanism, fault_models, sets: int, *,
                          exceedance: float | None = None
                          ) -> list[DiscreteDistribution]:
    """Whole-cache penalty distributions, one per fault model, in order.

    ``sets`` leading FMM rows are convolved; a set index or fault
    count outside the FMM raises :class:`~repro.errors.ConfigurationError`.
    With ``exceedance`` given, each row is only exact for quantiles at
    exceedance levels ``>= exceedance``: the rows are capped (see the
    module doc).  Without it they are the full distributions.
    """
    pmfs = [mechanism.fault_pmf(model) for model in fault_models]
    if not pmfs:
        return []
    counts = list(pmfs[0])
    # (rows × fault counts) weights; (sets × fault counts) penalties.
    weights = np.array([[pmf[count] for count in counts] for pmf in pmfs])
    penalties = np.array([[fmm.misses(set_index, count)
                           for count in counts]
                          for set_index in range(sets)], dtype=np.int64)
    tops = penalties.max(axis=1)
    live = np.flatnonzero(tops)
    penalties = penalties[live[np.argsort(tops[live], kind="stable")]]
    top = int(tops.sum())
    cap = top
    if exceedance is not None and len(penalties):
        cap = min(top, _chernoff_cap(penalties, weights, exceedance))
    if cap < top:
        acc = _fold(penalties, weights, cap)
        if np.all(acc[:, cap] <= exceedance):
            return _rows(acc)
        # Free the capped buffer: the refold peaks at its own width.
        del acc
    return _rows(_fold(penalties, weights, top))


def _rows(acc: np.ndarray) -> list[DiscreteDistribution]:
    return [DiscreteDistribution(row, normalized=False) for row in acc]


def _chernoff_cap(penalties: np.ndarray, weights: np.ndarray,
                  exceedance: float) -> int:
    """An integer ``C`` whose Chernoff bound on every row's
    ``P(X >= C)`` is at most ``exceedance``.

    For each ``t`` of a log-spaced grid scaled to the largest per-set
    penalty, ``C(t) = (K(t) - log exceedance) / t``, where
    ``K(t) = sum_s log sum_f w_f exp(t · FMM[s][f])`` is evaluated as
    a log-sum-exp; the cap is the best ``C(t)`` of the worst row.
    Float round-off makes this an estimate, which is why the fold
    certifies it.
    """
    grid = _T_GRID / float(penalties.max())
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    # (rows × sets × fault counts × t) exponents of the log-sum-exp.
    exponents = (log_weights[:, None, :, None]
                 + penalties[None, :, :, None] * grid)
    peak = exponents.max(axis=2)
    cumulants = (peak + np.log(np.exp(exponents - peak[:, :, None, :])
                               .sum(axis=2))).sum(axis=1)
    caps = ((cumulants - np.log(exceedance)) / grid).min(axis=1)
    return max(0, int(np.ceil(caps.max())))


def _fold(penalties: np.ndarray, weights: np.ndarray,
          cap: int) -> np.ndarray:
    """Each row's law of ``min(X, cap)``, in one ``(rows × cap + 1)``
    buffer; ``width`` counts its filled columns.

    Fault counts sharing a penalty merge first, adding their weights
    in fault-count order.
    """
    rows = len(weights)
    acc = np.empty((rows, cap + 1))
    acc[:, 0] = 1.0
    width = 1
    scratch = np.empty((2, rows, min(cap + 1, _CHUNK)))
    for set_penalties in penalties.tolist():
        values = sorted(set(set_penalties))
        merged = np.zeros((len(values), rows))
        np.add.at(merged, [values.index(penalty)
                           for penalty in set_penalties], weights.T)
        width = _fold_set(acc, width, values, merged, cap, scratch)
    return acc


def _fold_set(acc: np.ndarray, width: int, values: list[int],
              merged: np.ndarray, cap: int, scratch: np.ndarray) -> int:
    """Convolve ``acc[:, :width]`` in place with one set's per-row
    penalty distributions; returns the new width.

    Column ``j < cap`` becomes ``sum_k merged[k] · acc[j - values[k]]``
    over ascending ``k``, exactly the sum of a fresh zeroed
    accumulator.  When the support would pass ``cap``, column ``cap``
    instead collects every term landing at or above it
    (:func:`_spill`).
    """
    natural = width - 1 + values[-1]
    lump = _spill(acc, width, values, merged, cap) if natural > cap \
        else None
    end = cap if lump is not None else natural + 1
    total, product = scratch
    for stop in range(end, 0, -_CHUNK):
        start = max(0, stop - _CHUNK)
        out = total[:, :stop - start]
        out.fill(0.0)
        for value, weight in zip(values, merged):
            low, high = max(start, value), min(stop, width + value)
            if low < high:
                chunk = product[:, :high - low]
                np.multiply(acc[:, low - value:high - value],
                            weight[:, None], out=chunk)
                out[:, low - start:high - start] += chunk
        acc[:, start:stop] = out
    if lump is None:
        return end
    acc[:, cap] = lump
    return cap + 1


def _spill(acc: np.ndarray, width: int, values: list[int],
           merged: np.ndarray, cap: int) -> np.ndarray:
    """Per row, the mass this set's fold puts at or above ``cap``.

    Penalty ``values[k]`` lifts every column ``u >= cap - values[k]``
    to ``cap`` or beyond, so it contributes ``merged[k]`` times that
    column range's sum.  Ascending values reach ever lower columns, so
    each range's sum is the previous one plus one more segment.
    """
    lump = np.zeros(len(acc))
    tail = np.zeros(len(acc))
    top = width
    for value, weight in zip(values, merged):
        first = max(0, cap - value)
        if first < top:
            tail += acc[:, first:top].sum(axis=1)
            top = first
        lump += weight * tail
    return lump
