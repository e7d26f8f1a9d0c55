"""The failure rule and the digit count on fabricated reports."""

import math

import pytest

import rule

REF = 0.5 + 0.25j


def test_error_above_estimate_and_target_fails():
    assert rule.failed(REF + 1e-8, 1e-12, REF, 1e-30)


def test_raise_fails():
    assert rule.failed(None, None, REF, 1e-30)


def test_error_under_target_passes_despite_small_estimate():
    assert not rule.failed(REF + 5e-11, 1e-16, REF, 1e-30)


def test_honest_loose_estimate_passes():
    assert not rule.failed(REF + 1e-7, 1e-6, REF, 1e-30)


def test_target_is_relative_past_magnitude_one():
    big = 1e4 + 0j
    assert not rule.failed(big + 5e-7, 0.0, big, 1e-30)
    assert rule.failed(big + 5e-6, 0.0, big, 1e-30)


def test_reference_error_bar_widens_the_allowance():
    assert rule.failed(REF + 3e-10, 1e-12, REF, 1e-30)
    assert not rule.failed(REF + 3e-10, 1e-12, REF, 1e-9)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                 complex(0.0, math.inf)])
def test_non_finite_value_fails_with_no_digits(bad):
    assert rule.failed(bad, 1.0, REF, 1e-30)
    assert rule.digits(bad, REF, 1e-30) == 0.0


def test_digits_count_and_cap():
    assert rule.digits(1.0 + 1e-5, 1.0, 1e-30) == pytest.approx(5.0)
    # relative past magnitude one
    assert rule.digits(1e3 + 1e-2, 1e3, 1e-30) == pytest.approx(5.0)
    # an exact value is capped by the reference's bar, or by its rounding
    assert rule.digits(1.0, 1.0, 1e-12) == pytest.approx(12.0, abs=1e-3)
    assert rule.digits(1.0, 1.0, 0.0) == pytest.approx(53 * math.log10(2))
