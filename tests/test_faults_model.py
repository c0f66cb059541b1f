"""The fault probability model: equations (1), (2) and (3)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError
from repro.faults import FaultProbabilityModel

GEOMETRY = CacheGeometry.from_size(1024, 4, 16)

pfails = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def model(pfail: float) -> FaultProbabilityModel:
    return FaultProbabilityModel(geometry=GEOMETRY, pfail=pfail)


class TestEquation1:
    def test_paper_value(self):
        """pbf for pfail=1e-4 and K=128 bits (the paper's setup)."""
        pbf = model(1e-4).pbf
        assert pbf == pytest.approx(1 - (1 - 1e-4) ** 128, rel=1e-12)
        assert 0.012 < pbf < 0.013

    def test_extremes(self):
        assert model(0.0).pbf == 0.0
        assert model(1.0).pbf == 1.0

    def test_precision_at_tiny_pfail(self):
        """The roadmap's 45nm value (6.1e-13) must not underflow."""
        pbf = model(6.1e-13).pbf
        assert pbf == pytest.approx(128 * 6.1e-13, rel=1e-3)

    @given(pfails)
    def test_pbf_is_probability(self, pfail):
        assert 0.0 <= model(pfail).pbf <= 1.0

    def test_pbf_monotone_in_pfail(self):
        values = [model(p).pbf for p in (1e-6, 1e-5, 1e-4, 1e-3)]
        assert values == sorted(values)

    def test_invalid_pfail_rejected(self):
        with pytest.raises(ConfigurationError):
            model(1.5)
        with pytest.raises(ConfigurationError):
            model(-0.1)


class TestEquation2:
    @given(pfails)
    def test_pwf_sums_to_one(self, pfail):
        total = sum(model(pfail).pwf(w) for w in range(GEOMETRY.ways + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_is_zero(self):
        assert model(1e-4).pwf(-1) == 0.0
        assert model(1e-4).pwf(5) == 0.0

    def test_known_binomial_values(self):
        m = model(1e-4)
        pbf = m.pbf
        assert m.pwf(0) == pytest.approx((1 - pbf) ** 4)
        assert m.pwf(4) == pytest.approx(pbf ** 4)
        assert m.pwf(1) == pytest.approx(4 * pbf * (1 - pbf) ** 3)

    def test_mean_is_ways_times_pbf(self):
        m = model(1e-4)
        expectation = sum(w * m.pwf(w) for w in range(5))
        assert expectation == pytest.approx(4 * m.pbf, rel=1e-9)


class TestEquation3:
    @given(pfails)
    def test_rw_pwf_sums_to_one(self, pfail):
        total = sum(model(pfail).pwf_reliable_way(w)
                    for w in range(GEOMETRY.ways))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rw_excludes_all_faulty(self):
        assert model(1e-4).pwf_reliable_way(4) == 0.0

    def test_rw_is_binomial_over_w_minus_1(self):
        m = model(1e-4)
        pbf = m.pbf
        assert m.pwf_reliable_way(3) == pytest.approx(pbf ** 3)
        assert m.pwf_reliable_way(0) == pytest.approx((1 - pbf) ** 3)

    def test_rw_zero_faults_more_likely(self):
        """Masking one way makes 'no effective faults' more likely."""
        m = model(1e-3)
        assert m.pwf_reliable_way(0) > m.pwf(0)
