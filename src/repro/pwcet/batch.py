"""The penalty-convolution kernel: one dense fold over a pfail batch.

The paper's pWCET is one convolution (Figure 1.b): set ``s`` with
``f`` faulty blocks costs ``FMM[s][f]`` misses with the eq. 2 / eq. 3
probability of ``f``, sets are independent, so the whole-cache penalty
distribution is the convolution of the per-set ones.  The penalties
are pfail-independent; only the fault-pmf weights move along a
sweep's pfail axis.  The kernel therefore folds every pfail row at
once in one ``(rows × width)`` dense accumulator: each set's distinct
penalties (at most ``W + 1``) drive one shifted add each, scaled by
that row's weight, so every row's arithmetic is independent of the
other rows.

Sets fold in ascending width order, which keeps the accumulator short
for as long as possible; the shifted adds run in column chunks of
:data:`_CHUNK`, so the product temporary stays small next to the two
full-width buffers.  There is no FFT: its round-off would reach the
1e-15 tail the paper's quantiles live in.

The contract is the exact-rational one: every quantile equals the
quantile of the same convolution in ``fractions.Fraction`` arithmetic
over the float weights (checked in ``tests/test_distribution_batch.py``
and, for the whole suite, by ``tests/exact_suite.py``).
"""

from __future__ import annotations

import numpy as np

from repro.pwcet.distribution import DiscreteDistribution

#: Columns per shifted multiply-add: bounds the product temporary.
_CHUNK = 65536


def penalty_distributions(fmm, mechanism, fault_models, sets: int
                          ) -> list[DiscreteDistribution]:
    """Whole-cache penalty distributions, one per fault model, in order.

    ``sets`` leading FMM rows are convolved; a set index or fault
    count outside the FMM raises :class:`~repro.errors.ConfigurationError`.
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
    acc = np.ones((len(pmfs), 1))
    for set_index in live[np.argsort(tops[live], kind="stable")]:
        acc = _fold_set(acc, penalties[set_index], weights)
    return [DiscreteDistribution(row, normalized=False) for row in acc]


def _fold_set(acc: np.ndarray, penalties: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """``acc`` convolved with one set's per-row penalty distributions.

    Fault counts sharing a penalty merge first, adding their weights
    in fault-count order; then each distinct penalty, ascending,
    drives one shifted add of its weight times ``acc``.
    """
    values, slots = np.unique(penalties, return_inverse=True)
    merged = np.zeros((len(values), len(weights)))
    np.add.at(merged, slots, weights.T)
    width = acc.shape[1]
    out = np.zeros((len(acc), width + int(values[-1])))
    product = np.empty((len(acc), min(width, _CHUNK)))
    for value, weight in zip(values.tolist(), merged):
        column = weight[:, None]
        for start in range(0, width, _CHUNK):
            stop = min(start + _CHUNK, width)
            chunk = product[:, :stop - start]
            np.multiply(acc[:, start:stop], column, out=chunk)
            out[:, value + start:value + stop] += chunk
    return out
