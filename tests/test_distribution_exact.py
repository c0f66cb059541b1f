"""Exact-rational cross-validation of the probabilistic chain.

The float pipeline (binomial pmf -> per-set points -> convolution ->
CCDF -> quantile) is compared point by point with its
``fractions.Fraction`` re-implementation in ``tests/oracles.py``.  This guards the deep-tail
behaviour the paper's 1e-15 quantiles rely on: float round-off must
never move a quantile.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.pwcet import DiscreteDistribution
from tests.oracles import exact_convolve, exact_quantiles


def float_convolution(parts) -> DiscreteDistribution:
    """The float pipeline's fold of exact point sets."""
    return reduce(DiscreteDistribution.convolve, [
        DiscreteDistribution.from_points(
            {value: float(p) for value, p in part.items()})
        for part in parts])


@st.composite
def rational_point_sets(draw):
    """Sparse distributions with exactly representable probabilities."""
    size = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, 30), min_size=size,
                           max_size=size, unique=True))
    weights = draw(st.lists(st.integers(1, 16), min_size=size,
                            max_size=size))
    total = sum(weights)
    return {value: Fraction(weight, total)
            for value, weight in zip(values, weights)}


class TestAgainstExactArithmetic:
    @settings(max_examples=60)
    @given(st.lists(rational_point_sets(), min_size=1, max_size=4))
    def test_convolution_matches_fractions(self, parts):
        exact: dict[int, Fraction] = {0: Fraction(1)}
        for part in parts:
            exact = exact_convolve(exact, part)
        floats = float_convolution(parts)
        for value, probability in exact.items():
            assert floats.probability_of(value) == pytest.approx(
                float(probability), rel=1e-9, abs=1e-12)

    @settings(max_examples=60)
    @given(st.lists(rational_point_sets(), min_size=1, max_size=3),
           st.integers(1, 60))
    def test_quantiles_match_fractions(self, parts, denominator):
        probability = Fraction(1, denominator * 10)
        exact: dict[int, Fraction] = {0: Fraction(1)}
        for part in parts:
            exact = exact_convolve(exact, part)
        floats = float_convolution(parts)
        [expected] = exact_quantiles(exact, [probability])
        # Guard against knife-edge cases where the float CCDF equals
        # the probability exactly: only compare when the exact tail is
        # not razor-close to the target.
        tail_at_expected = sum(p for value, p in exact.items()
                               if value > expected)
        margin = abs(float(tail_at_expected) - float(probability))
        if margin > 1e-9:
            assert floats.quantile_exceedance(float(probability)) \
                == expected

    def test_deep_tail_binomial_chain(self):
        """16 sets, 5-point binomials, quantile at 1e-15 — the paper's
        exact configuration, checked against rational arithmetic."""
        q = Fraction(1, 79)  # a pbf-like rational
        per_set: dict[int, Fraction] = {}
        from math import comb
        for w in range(5):
            probability = (Fraction(comb(4, w)) * q ** w
                           * (1 - q) ** (4 - w))
            per_set[w * 10] = probability  # penalty = 10 misses per way
        exact: dict[int, Fraction] = {0: Fraction(1)}
        for _ in range(16):
            exact = exact_convolve(exact, per_set)
        floats = float_convolution([per_set] * 16)
        levels = (Fraction(1, 10 ** 6), Fraction(1, 10 ** 10),
                  Fraction(1, 10 ** 15))
        assert [floats.quantile_exceedance(float(probability))
                for probability in levels] \
            == exact_quantiles(exact, levels)
