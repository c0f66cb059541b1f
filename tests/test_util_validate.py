"""Unit tests for the validation helpers."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.util import (check_positive_int, check_power_of_two,
                        check_probability, ilog2)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ConfigurationError, match="must be > 0"):
            check_positive_int(bad, "x")

    @pytest.mark.parametrize("bad", [1.5, "3", None, True, False])
    def test_rejects_non_int(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive_int(bad, "x")

    def test_error_mentions_name(self):
        with pytest.raises(ConfigurationError, match="ways"):
            check_positive_int(-2, "ways")


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("good", [1, 2, 4, 8, 1024, 2 ** 20])
    def test_accepts_powers(self, good):
        assert check_power_of_two(good, "x") == good

    @pytest.mark.parametrize("bad", [3, 5, 6, 7, 12, 100, 1000])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ConfigurationError, match="power of two"):
            check_power_of_two(bad, "x")

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_power_of_two(0, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("good", [0.0, 0.5, 1.0, 1e-15])
    def test_accepts_probabilities(self, good):
        assert check_probability(good, "p") == good

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability(bad, "p")

    def test_strict_zero(self):
        with pytest.raises(ConfigurationError):
            check_probability(0.0, "p", allow_zero=False)

    def test_strict_one(self):
        with pytest.raises(ConfigurationError):
            check_probability(1.0, "p", allow_one=False)

    @pytest.mark.parametrize("value, switches, interval", [
        (2.0, {}, "[0, 1]"),
        (0.0, {"allow_zero": False}, "(0, 1]"),
        (1.0, {"allow_one": False}, "[0, 1)"),
        (0.0, {"allow_zero": False, "allow_one": False}, "(0, 1)"),
    ])
    def test_error_names_the_checked_interval(self, value, switches,
                                              interval):
        expected = f"p must lie in {interval}, got {value}"
        with pytest.raises(ConfigurationError, match=re.escape(expected)):
            check_probability(value, "p", **switches)

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_probability("half", "p")


class TestIlog2:
    @given(st.integers(0, 30))
    def test_roundtrip(self, exponent):
        assert ilog2(2 ** exponent) == exponent

    def test_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            ilog2(12)
