"""Guarded strict comparisons: ``strict_sign`` decides a difference written
once over the numeric context, and ``escalation_digits`` sets the precision
of its high-precision re-decision."""

from fractions import Fraction

import pytest

from qbounds import (AmbiguousComparisonError, BoundParams, DomainError,
                     eb_rate_bound, rank_bound, stirling_bounds, threshold_F)
from qbounds.precision import FLOAT, escalation_digits, strict_sign


def _sqrt2_gap(m):
    # the double nearest sqrt(2): 0.0 in double precision, -9.7e-17 exactly
    return m.sqrt(m.num(2)) - m.num(1.4142135623730951)


@pytest.mark.parametrize("digits", [None, 5])
def test_float_tie_is_escalated(digits):
    assert _sqrt2_gap(FLOAT) == 0.0
    assert strict_sign(_sqrt2_gap, digits) == (-1, True)


def test_clear_sign_is_not_escalated():
    assert strict_sign(lambda m: m.num(3) / 8 - m.num(0.37)) == (1, False)
    assert strict_sign(lambda m: m.sqrt(2) - m.num(2)) == (-1, False)


def test_exact_tie_is_ambiguous():
    with pytest.raises(AmbiguousComparisonError):
        strict_sign(lambda m: m.num(3) / 8 - m.num(0.375))


@pytest.mark.parametrize("digits, expected", [(None, 50), (5, 17), (60, 60)])
def test_escalation_digits(digits, expected):
    assert escalation_digits(digits) == expected


@pytest.mark.parametrize("digits", [0, -5, True])
def test_escalation_digits_rejects(digits):
    with pytest.raises(DomainError):
        escalation_digits(digits)


@pytest.mark.parametrize("call", [
    lambda digits: stirling_bounds(10 ** 320, digits),
    lambda digits: threshold_F(3, 10 ** 320, digits),
    lambda digits: rank_bound(3, 10 ** 320, Fraction(1, 4), digits),
    lambda digits: eb_rate_bound(BoundParams(q=3, n=10 ** 320, d=5), digits),
], ids=["stirling_bounds", "threshold_F", "rank_bound", "eb_rate_bound"])
def test_int_beyond_double_is_a_domain_error(call):
    # 10^320 overflows a double: a DomainError that names digits, and the
    # same call at 30 digits succeeds
    with pytest.raises(DomainError, match="digits"):
        call(None)
    call(30)
