"""Tests for latency functions."""

import pytest

from repro.core.latency import (
    affine_latency,
    constant_latency,
    function_latency,
    table_latency,
)
from repro.core.time_domain import MAX_DATE
from repro.errors import TimeDomainError


class TestConstantLatency:
    def test_value(self):
        lat = constant_latency(3)
        assert lat(0) == 3
        assert lat(100) == 3

    def test_default_is_unit(self):
        assert constant_latency()(5) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(TimeDomainError):
            constant_latency(0)
        with pytest.raises(TimeDomainError):
            constant_latency(-2)

    def test_rejects_non_integer(self):
        with pytest.raises(TimeDomainError):
            constant_latency(1.5)

    @pytest.mark.parametrize("value", [True, MAX_DATE, 10**30], ids=repr)
    def test_rejects_bools_and_values_from_max_date(self, value):
        """A bool is not a duration, and a latency of 2**62 or more
        could overflow the engine's int64 arrival arrays."""
        with pytest.raises(TimeDomainError):
            constant_latency(value)

    def test_largest_value_below_max_date(self):
        assert constant_latency(MAX_DATE - 1)(0) == MAX_DATE - 1


class TestAffineLatency:
    def test_table1_shape(self):
        # Table 1's e0 latency: (p - 1) * t with p = 2.
        lat = affine_latency(1)
        assert lat(1) == 1
        assert lat(8) == 8

    def test_with_intercept(self):
        lat = affine_latency(2, 3)
        assert lat(0) == 3
        assert lat(5) == 13

    def test_positivity_enforced_at_call(self):
        lat = affine_latency(1, 0)  # value 0 at t = 0
        with pytest.raises(TimeDomainError):
            lat(0)
        assert lat(1) == 1


class TestTableLatency:
    def test_lookup(self):
        lat = table_latency({0: 5, 3: 2}, default=7)
        assert lat(0) == 5
        assert lat(3) == 2
        assert lat(9) == 7

    def test_missing_without_default(self):
        lat = table_latency({0: 5})
        with pytest.raises(TimeDomainError):
            lat(1)


class TestFunctionLatency:
    def test_callable(self):
        lat = function_latency(lambda t: t + 1)
        assert lat(0) == 1
        assert lat(9) == 10

    def test_non_integer_result_rejected(self):
        lat = function_latency(lambda t: 1.5)
        with pytest.raises(TimeDomainError):
            lat(0)

    def test_nonpositive_result_rejected(self):
        lat = function_latency(lambda t: -1)
        with pytest.raises(TimeDomainError):
            lat(0)


class TestTransforms:
    def test_shifted(self):
        lat = function_latency(lambda t: t + 1).shifted(10)
        # new(t) = old(t - 10)
        assert lat(10) == 1
        assert lat(14) == 5

    def test_dilated_scales_value_and_time(self):
        lat = function_latency(lambda t: t + 1).dilated(3)
        # new(3t) = 3 * old(t)
        assert lat(0) == 3 * 1
        assert lat(6) == 3 * 3

    def test_dilated_rejects_nonpositive(self):
        with pytest.raises(TimeDomainError):
            constant_latency(1).dilated(0)
