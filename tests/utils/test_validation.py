"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 0.1)

    @pytest.mark.parametrize("v", [0, -1, -0.5])
    def test_rejects(self, v):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", v)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckFraction:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_inclusive(self, v):
        check_fraction("f", v)

    @pytest.mark.parametrize("v", [-0.01, 1.01])
    def test_rejects_outside(self, v):
        with pytest.raises(ValueError):
            check_fraction("f", v)

    def test_exclusive_low(self):
        with pytest.raises(ValueError):
            check_fraction("f", 0.0, inclusive_low=False)

    def test_exclusive_high(self):
        with pytest.raises(ValueError):
            check_fraction("f", 1.0, inclusive_high=False)
