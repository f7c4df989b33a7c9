"""Guarded strict comparisons: ``apart`` states the one cut-off,
``strict_sign`` and ``exceeds`` decide a difference written once over the
numeric context, and ``escalation_digits`` sets the precision of their
high-precision re-decision."""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from qbounds import (AmbiguousComparisonError, BoundParams, Classification,
                     DomainError, classify_rank, eb_rate_bound, geometry,
                     precision, rank_bound, stirling_bounds, threshold_F)
from qbounds.precision import (DECISION_MARGIN, FLOAT, apart,
                               escalation_digits, exceeds, strict_sign)


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


@pytest.mark.parametrize("digits", [None, 30])
def test_nan_at_every_precision_is_ambiguous(digits):
    # a NaN difference is never given a sign, not even at high precision
    with pytest.raises(AmbiguousComparisonError, match="nan"):
        strict_sign(lambda m: m.num(math.nan), digits)


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


# (a, b, apart): far pairs, ties within the margin, a tie at exactly the
# margin, infinities and NaN
_PAIRS = [(0.0, 0.0, False), (1.0, 1.0 + 1e-12, False),
          (1.0, 1.0 + 2e-9, True), (5.0, -5.0, True),
          (DECISION_MARGIN, 0.0, False), (-2 * DECISION_MARGIN, 0.0, True),
          (math.inf, 1.0, True), (3.0, math.nan, False),
          (math.nan, math.nan, False)]


class TestApart:
    def test_scalars(self):
        assert [apart(a, b) for a, b, _ in _PAIRS] == [
            want for _, _, want in _PAIRS]

    def test_reads_the_margin_at_call_time(self, monkeypatch):
        assert apart(1.0, 5.0)
        monkeypatch.setattr(precision, "DECISION_MARGIN", 10.0)
        assert not apart(1.0, 5.0)

    def test_int_beyond_double_is_compared_exactly(self):
        # 10^320 is never converted to a double, so nothing overflows
        assert apart(10 ** 320, 1e300) and apart(-10 ** 320, 0.0)
        assert exceeds(10 ** 320, 1e300, _never_evaluated)
        assert not exceeds(-10 ** 320, 0.0, _never_evaluated)


def _never_evaluated(m):
    raise AssertionError("the comparison was decided without diff")


def _spy_strict_sign(monkeypatch):
    """The signs ``strict_sign`` returns, recorded as they are returned."""
    signs = []
    decide = precision.strict_sign
    monkeypatch.setattr(precision, "strict_sign", lambda diff, digits=None:
                        signs.append(decide(diff, digits)) or signs[-1])
    return signs


class TestExceeds:
    def test_apart_values_are_decided_from_the_values(self):
        assert exceeds(3, 2.5, _never_evaluated)
        assert not exceeds(2, 2.5, _never_evaluated)
        assert exceeds(2.5 + 1e-6, 2.5, _never_evaluated)

    def test_exact_double_tie_escalates(self, monkeypatch):
        # F(1004637445, 3) = 273222997.99999997... rounds to r = 273222998
        # in double precision; 50 digits decide r > F
        n, r = 1004637445, 273222998
        F = threshold_F(3, n)
        assert F == r and not apart(r, F)
        signs = _spy_strict_sign(monkeypatch)
        assert classify_rank(3, n, r).classification is (
            Classification.MAIN_THEOREM)
        assert signs == [(1, True)]

    @pytest.mark.parametrize("digits", [1, 2, 16])
    def test_fewer_digits_than_a_double_are_re_decided(self, monkeypatch,
                                                       digits):
        # F(100, 3) = 38.29 is 37.5 at one digit, apart from r = 38 and
        # below it; the double-precision difference decides r < F instead
        F = threshold_F(3, 100, digits)
        if digits == 1:
            assert apart(38, F) and 38 > F
        signs = _spy_strict_sign(monkeypatch)
        assert not exceeds(38, F, lambda m: m.num(38) - geometry._threshold_F(
            m, 3, 100), digits)
        assert signs == [(-1, False)]

    def test_nan_escalates(self, monkeypatch):
        # a NaN in double precision is never decided there; the
        # high-precision difference decides instead
        def diff(m):
            return m.num(math.nan) if m is FLOAT else m.one

        signs = _spy_strict_sign(monkeypatch)
        assert exceeds(1, math.nan, diff)
        assert strict_sign(diff) == (1, True)
        assert signs == [(1, True)]


def test_the_cut_off_is_named_in_precision_only():
    # every close comparison goes through precision.apart; tests may still
    # monkeypatch precision.DECISION_MARGIN
    naming = sorted(path.name
                    for path in Path(precision.__file__).parent.glob("*.py")
                    if "DECISION_MARGIN" in path.read_text())
    assert naming == ["precision.py"]
