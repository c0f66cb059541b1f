"""Discrete distributions: construction, convolution, tail queries."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DistributionError
from repro.pwcet import DiscreteDistribution


@st.composite
def distributions(draw, max_support=12):
    """Random normalised distributions with small integer support."""
    size = draw(st.integers(1, max_support))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total = sum(raw)
    if total == 0:
        raw[0] = 1.0
        total = 1.0
    return DiscreteDistribution(np.array(raw) / total)


class TestConstruction:
    def test_point_mass(self):
        d = DiscreteDistribution.point_mass(3)
        assert d.probability_of(3) == 1.0
        assert d.support_max == 3
        assert d.mean() == 3.0

    def test_from_points(self):
        d = DiscreteDistribution.from_points({0: 0.75, 3: 0.25})
        assert d.probability_of(0) == 0.75
        assert d.probability_of(1) == 0.0
        assert d.support_max == 3

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(np.array([]))
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_points({})

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(np.array([0.5, -0.1, 0.6]))

    def test_rejects_unnormalised(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(np.array([0.5, 0.1]))

    def test_unnormalised_allowed_when_flagged(self):
        d = DiscreteDistribution(np.array([0.5, 0.1]), normalized=False)
        assert d.total_mass == pytest.approx(0.6)

    def test_rejects_negative_support(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_points({-1: 1.0})


class TestConvolution:
    def test_known_convolution(self):
        a = DiscreteDistribution.from_points({0: 0.5, 1: 0.5})
        b = DiscreteDistribution.from_points({0: 0.5, 2: 0.5})
        c = a.convolve(b)
        assert c.probability_of(0) == pytest.approx(0.25)
        assert c.probability_of(1) == pytest.approx(0.25)
        assert c.probability_of(2) == pytest.approx(0.25)
        assert c.probability_of(3) == pytest.approx(0.25)

    def test_point_mass_is_identity(self):
        a = DiscreteDistribution.from_points({1: 0.3, 4: 0.7})
        identity = DiscreteDistribution.point_mass(0)
        assert np.allclose(a.convolve(identity).pmf[:a.support_max + 1],
                           a.pmf)

    def test_point_mass_shifts(self):
        a = DiscreteDistribution.from_points({1: 1.0})
        shifted = a.convolve(DiscreteDistribution.point_mass(2))
        assert shifted.probability_of(3) == pytest.approx(1.0)

    @given(distributions(), distributions())
    def test_mass_preserved(self, a, b):
        assert a.convolve(b).total_mass == pytest.approx(
            a.total_mass * b.total_mass, rel=1e-9)

    @given(distributions(), distributions())
    def test_commutative(self, a, b):
        assert np.allclose(a.convolve(b).pmf, b.convolve(a).pmf)

    @given(distributions(), distributions())
    def test_mean_additive(self, a, b):
        assert a.convolve(b).mean() == pytest.approx(a.mean() + b.mean(),
                                                     abs=1e-9)

    @given(st.lists(distributions(), min_size=1, max_size=4))
    def test_convolve_all(self, parts):
        combined = reduce(DiscreteDistribution.convolve, parts)
        expected_mean = sum(p.mean() for p in parts)
        assert combined.mean() == pytest.approx(expected_mean, abs=1e-8)


class TestTailQueries:
    def test_ccdf_definition(self):
        d = DiscreteDistribution.from_points({0: 0.5, 1: 0.3, 2: 0.2})
        ccdf = d.ccdf()
        assert ccdf[0] == pytest.approx(0.5)
        assert ccdf[1] == pytest.approx(0.2)
        assert ccdf[2] == pytest.approx(0.0)

    @given(distributions())
    def test_ccdf_non_increasing(self, d):
        ccdf = d.ccdf()
        assert np.all(np.diff(ccdf) <= 1e-15)

    def test_quantile_exceedance(self):
        d = DiscreteDistribution.from_points({0: 0.9, 10: 0.0999,
                                              100: 1e-4 - 1e-8,
                                              1000: 1e-8})
        assert d.quantile_exceedance(0.5) == 0
        assert d.quantile_exceedance(0.05) == 10
        assert d.quantile_exceedance(1e-5) == 100
        assert d.quantile_exceedance(1e-9) == 1000

    def test_quantile_semantics(self):
        """P(X > quantile(p)) <= p, and the quantile is minimal."""
        d = DiscreteDistribution.from_points(
            {0: 0.6, 3: 0.3, 7: 0.09, 12: 0.01})
        for p in (0.5, 0.2, 0.05, 0.005):
            q = d.quantile_exceedance(p)
            ccdf = d.ccdf()
            assert ccdf[q] <= p
            if q > 0:
                assert ccdf[q - 1] > p

    def test_quantile_rejects_bad_probability(self):
        d = DiscreteDistribution.point_mass(0)
        with pytest.raises(DistributionError):
            d.quantile_exceedance(0.0)
        with pytest.raises(DistributionError):
            d.quantile_exceedance(1.0)

    def test_deep_tail_accuracy(self):
        """Quantiles at 1e-15 must be exact despite float addition."""
        parts = [DiscreteDistribution.from_points({0: 1 - 1e-5, 7: 1e-5})
                 for _ in range(6)]
        combined = reduce(DiscreteDistribution.convolve, parts)
        # P(X >= 21) = P(at least 3 of 6 events) ~ C(6,3)*1e-15 = 2e-14
        assert combined.quantile_exceedance(1e-13) == 14
        assert combined.quantile_exceedance(1e-14) == 21
        assert combined.quantile_exceedance(1e-19) == 28

    def test_equality(self):
        a = DiscreteDistribution.from_points({0: 0.5, 1: 0.5})
        b = DiscreteDistribution.from_points({0: 0.5, 1: 0.5})
        assert a == b
        assert a != DiscreteDistribution.point_mass(0)
