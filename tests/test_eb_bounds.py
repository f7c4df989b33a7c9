"""Tests for the rate and rank bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qbounds import (BoundParams, DomainError, PreconditionError,
                     classify_rank, eb_rate_bound, eb_rate_bound_continuous,
                     entropy, is_prime, johnson_radius, max_code_size,
                     rank_bound, verify_rank_monotonicity)
from qbounds import eb_bounds, precision
from qbounds.eb_bounds import _rank_bound, _rate_check
from qbounds.precision import FLOAT, escalation_digits, evaluate


class TestBoundParams:
    def test_exactly_one_of_d_delta(self):
        with pytest.raises(DomainError):
            BoundParams(q=3, n=10)
        with pytest.raises(DomainError):
            BoundParams(q=3, n=10, d=3, delta=0.3)

    def test_d_gives_exact_rational_delta(self):
        p = BoundParams(q=3, n=100, d=25)
        assert p.delta_value == Fraction(1, 4)

    def test_d_range(self):
        with pytest.raises(DomainError):
            BoundParams(q=3, n=10, d=11)
        with pytest.raises(DomainError):
            BoundParams(q=3, n=10, d=0)

    @pytest.mark.parametrize("kwargs", [
        {"d": 2.5}, {"d": 3.0}, {"d": Fraction(5, 2)}, {"d": "3"},
        {"delta": "0.2"}, {"delta": 0.2j}, {"delta": [0.2]}, {"d": True},
        {"delta": True}],
        ids=["d-2.5", "d-3.0", "d-Fraction", "d-str", "delta-str",
             "delta-complex", "delta-list", "d-bool", "delta-bool"])
    def test_non_integer_d_or_non_real_delta(self, kwargs):
        with pytest.raises(DomainError):
            BoundParams(q=3, n=10, **kwargs)


class TestFiniteForm:
    def test_johnson_decoding_radius(self):
        # J_3(1/4) = 0.13962..., so e = ceil(13.962) - 1 = 13
        assert eb_rate_bound(BoundParams(q=3, n=100, d=25)).e == 13

    def test_sound_against_exhaustive_extremal_codes(self):
        # delta must stay below (q-1)/q for the bound to apply
        for q, n, d in [(2, 6, 2), (2, 7, 3), (3, 5, 2), (3, 4, 2)]:
            size, _ = max_code_size(q, n, d)
            rate = math.log(size) / (n * math.log(q))
            assert rate <= eb_rate_bound(BoundParams(q=q, n=n, d=d)).rate_upper

    def test_correction_terms_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = int(rng.integers(2, 12))
            n = int(rng.integers(20, 500))
            delta = float(rng.uniform(0.05, (q - 1) / q - 0.02))
            res = eb_rate_bound(BoundParams(q=q, n=n, delta=delta))
            base = 1.0 - entropy(q, res.e / n)
            assert res.rate_upper >= base - 1e-12
            for label, value in res.terms[1:]:
                assert value >= 0, label

    def test_term_sum_consistency(self):
        res = eb_rate_bound(BoundParams(q=5, n=250, d=60))
        assert res.rate_upper == pytest.approx(
            sum(v for _, v in res.terms), rel=1e-12)

    def test_e_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = int(rng.integers(2, 10))
            n = int(rng.integers(30, 2000))
            delta = float(rng.uniform(0.03, (q - 1) / q - 0.02))
            res = eb_rate_bound(BoundParams(q=q, n=n, delta=delta))
            J = johnson_radius(q, delta)
            assert res.e / n < J <= (res.e + 1) / n + 1e-12

    def test_preconditions(self):
        with pytest.raises(DomainError):
            eb_rate_bound(BoundParams(q=3, n=9, d=6))  # delta = 2/3
        with pytest.raises(PreconditionError):
            eb_rate_bound(BoundParams(q=3, n=4, d=1))  # e = 0


class TestRateCheck:
    # (3, 11, 5) is non-vacuous (bound 0.829): the Golay size 729 is under
    # it and the whole space 3^11 is over it
    @pytest.mark.parametrize("q, n, d, size, holds", [
        (3, 5, 3, 18, True), (2, 8, 3, 20, True), (2, 6, 2, 32, True),
        (3, 11, 5, 729, True), (3, 11, 5, 3 ** 11, False)])
    def test_verdict_survives_forced_escalation(self, monkeypatch, q, n, d,
                                                size, holds):
        rate, bound, verdict = _rate_check(q, n, d, size)
        assert rate == math.log(size) / (n * math.log(q))
        assert bound == eb_rate_bound(BoundParams(q=q, n=n, d=d)).rate_upper
        assert verdict is holds
        signs = []
        decide = eb_bounds.strict_sign
        monkeypatch.setattr(precision, "DECISION_MARGIN", 10.0)
        monkeypatch.setattr(eb_bounds, "strict_sign", lambda diff, digits:
                            signs.append(decide(diff, digits)) or signs[-1])
        assert _rate_check(q, n, d, size) == (rate, bound, holds)
        assert signs == [(1 if holds else -1, True)]

    def test_bound_at_digits(self):
        rate, bound, holds = _rate_check(2, 8, 3, 20, digits=30)
        assert bound == eb_rate_bound(BoundParams(q=2, n=8, d=3), digits=30
                                      ).rate_upper
        assert rate == math.log(20) / (8 * math.log(2)) and holds

    @pytest.mark.parametrize("q, n, d, error", [
        (3, 9, 6, DomainError), (3, 4, 1, PreconditionError),
        (3, 10, 2.5, DomainError)])
    def test_outside_the_bound_raises(self, q, n, d, error):
        with pytest.raises(error):
            _rate_check(q, n, d, 2)


class TestIntegerJohnsonRadius:
    """Where n J_q(d/n) is an integer k, e/n < J needs e = k - 1."""

    def test_every_integer_case_below_400(self):
        # J_q(d/n) is rational exactly when the radicand
        # 1 - qd/((q-1)n) = num/den is a square of rationals
        found = 0
        for q in (2, 3, 4, 5, 7, 11):
            for n in range(1, 400):
                for d in range(1, -(-(q - 1) * n // q)):  # d/n < (q-1)/q
                    num, den = (q - 1) * n - q * d, (q - 1) * n
                    root = math.isqrt(num * den)
                    if root * root != num * den:
                        continue
                    k = n * Fraction(q - 1, q) * (1 - Fraction(root, den))
                    if k.denominator != 1:
                        continue
                    found += 1
                    params = BoundParams(q=q, n=n, d=d)
                    finite = eb_rate_bound(params)
                    assert finite.e == k - 1, (q, n, d)
                    assert (eb_rate_bound_continuous(params).rate_upper
                            >= finite.rate_upper), (q, n, d)
        assert found == 1747

    @pytest.mark.parametrize("q, n, d, e, rate", [
        (2, 9, 4, 2, 1.1138429377548578),    # J_2(4/9) = 1/3
        (5, 324, 259, 251, 0.03167003341636925),
    ])
    def test_examples(self, q, n, d, e, rate):
        res = eb_rate_bound(BoundParams(q=q, n=n, d=d))
        assert res.e == e
        assert res.rate_upper == pytest.approx(rate, rel=1e-12)


class TestContinuousForm:
    def test_relaxation_ordering_examples(self):
        p = BoundParams(q=3, n=100, d=25)
        assert (eb_rate_bound_continuous(p).rate_upper
                >= eb_rate_bound(p).rate_upper)

    def test_gap_at_n1000(self):
        p = BoundParams(q=5, n=1000, delta=0.25)
        gap = (eb_rate_bound_continuous(p).rate_upper
               - eb_rate_bound(p).rate_upper)
        assert 0 <= gap < 0.02

    def test_limit_at_large_n(self):
        q, delta, n = 3, 0.25, 10 ** 6
        res = eb_rate_bound_continuous(BoundParams(q=q, n=n, delta=delta))
        limit = 1.0 - entropy(q, johnson_radius(q, delta))
        # correction terms decay like log(n)/n (the log_q(q n^2 delta)/n
        # term dominates), so bound the gap by a multiple of that
        assert 0 <= res.rate_upper - limit <= 5.0 * math.log(n) / n

    def test_relaxation_ordering_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = int(rng.integers(3, 30))
            n = int(rng.integers(16, 10 ** 5))
            delta = float(rng.uniform(0.01, (q - 1) / q - 0.01))
            p = BoundParams(q=q, n=n, delta=delta)
            if n * johnson_radius(q, delta) <= 1.0:
                continue
            assert (eb_rate_bound_continuous(p).rate_upper
                    >= eb_rate_bound(p).rate_upper - 1e-12)

    def test_term_sum_consistency(self):
        res = eb_rate_bound_continuous(BoundParams(q=7, n=300, d=50))
        assert res.rate_upper == pytest.approx(
            sum(v for _, v in res.terms), rel=1e-12)


class TestRankBound:
    def test_third_below_quarter(self):
        r13 = rank_bound(3, 16, Fraction(1, 3)).r_upper
        r14 = rank_bound(3, 16, Fraction(1, 4)).r_upper
        assert r13 < r14

    def test_dominant_term(self):
        res = rank_bound(3, 100, Fraction(1, 4))
        expected = (1 - entropy(3, johnson_radius(3, 0.25))) * 100
        assert dict(res.terms)["dominant_linear"] == pytest.approx(expected, rel=1e-12)

    def test_term_sum_consistency(self):
        res = rank_bound(29, 5000, Fraction(1, 4))
        assert res.r_upper == pytest.approx(
            sum(v for _, v in res.terms), rel=1e-12)

    def test_nonprime_rejected(self):
        with pytest.raises(DomainError):
            rank_bound(9, 100, 0.25)

    def test_strictly_decreasing_between_quarter_and_third(self):
        for p in (3, 29):
            for n in (16, 100, 10 ** 4):
                deltas = np.linspace(0.25, 1 / 3, 100)
                vals = [rank_bound(p, n, float(d)).r_upper for d in deltas]
                assert (np.diff(vals) < 0).all()

    def test_small_exhaustive_injection_check(self):
        # every ternary length-4 code containing 0 with min weight >= 2
        # realizes a "rank" log_3 |C| below the bound at delta = 1/2
        size, witness = max_code_size(3, 4, 2)
        r_realized = math.log(size) / math.log(3)
        assert r_realized <= rank_bound(3, 4, Fraction(1, 2)).r_upper


class TestRankMonotonicity:
    def test_anchor_case(self):
        assert verify_rank_monotonicity(3, 16)

    def test_large_prime_large_n(self):
        assert verify_rank_monotonicity(29, 10 ** 5)

    def test_hypothesis_boundary(self):
        with pytest.raises(PreconditionError):
            verify_rank_monotonicity(3, 15)

    def test_prime_check(self):
        with pytest.raises(DomainError):
            verify_rank_monotonicity(4, 20)

    def test_one_double_evaluation(self, monkeypatch):
        calls = []

        def spy(m, p, n, delta):
            calls.append((m, delta))
            return _rank_bound(m, p, n, delta)

        monkeypatch.setattr(eb_bounds, "_rank_bound", spy)
        assert verify_rank_monotonicity(3, 50)
        assert calls == [(FLOAT, Fraction(1, 4)), (FLOAT, Fraction(1, 3))]

    def test_wide_margin_escalates_and_decides(self, monkeypatch):
        # |diff| = 1.97 here: a margin of 1e3 escalates it, and the
        # ambiguity floor does not follow the margin
        signs = []
        decide = eb_bounds.strict_sign
        monkeypatch.setattr(precision, "DECISION_MARGIN", 1e3)
        monkeypatch.setattr(eb_bounds, "strict_sign", lambda diff:
                            signs.append(decide(diff)) or signs[-1])
        assert verify_rank_monotonicity(3, 16)
        assert signs == [(1, True)]

    def test_escalated_verdicts_are_the_double_ones(self, monkeypatch):
        # every difference on the suite's grid is >= 1.2; each comparison
        # goes to the high-precision evaluation
        grid = [*range(16, 201), 10 ** 3, 10 ** 4, 10 ** 5]
        pairs = [(p, n) for p in (3, 29) for n in grid]
        plain = [verify_rank_monotonicity(p, n) for p, n in pairs]
        assert all(plain)
        calls = []

        def escalated(diff, digits=None):
            calls.append(diff)
            return (1 if evaluate(escalation_digits(digits), diff) > 0
                    else -1), True

        monkeypatch.setattr(eb_bounds, "strict_sign", escalated)
        assert [verify_rank_monotonicity(p, n) for p, n in pairs] == plain
        assert len(calls) == len(pairs)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="double precision"):
            verify_rank_monotonicity(3, 10 ** 400)


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def by_division(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))
        assert [n for n in range(-3, 20_000) if is_prime(n)] == \
            [n for n in range(-3, 20_000) if by_division(n)]

    @pytest.mark.parametrize("n, prime", [
        (2 ** 61 - 1, True),  # a Mersenne prime
        (561, False), (3215031751, False),  # Carmichael, pseudoprime to 2..7
        # the least strong pseudoprime to the bases 2..37; 41 exposes it
        (318665857834031151167461, False),
        (3317044064679887385961980, False),  # even, beyond the bound
        # no factor up to 41, and beyond the bound: a base proves it composite
        pytest.param(10 ** 320 + 1, False, id="10^320+1"),
        (True, False), (3.0, False),
    ])
    def test_known_values(self, n, prime):
        assert is_prime(n) is prime

    @pytest.mark.parametrize("n", [
        3317044064679887385961981,  # a strong pseudoprime to every base
        2 ** 89 - 1, 2 ** 521 - 1,  # Mersenne primes
    ], ids=["psi13", "M89", "M521"])
    def test_undecided_beyond_the_bound(self, n):
        # trial division of M521 would not end
        with pytest.raises(DomainError, match="primality"):
            is_prime(n)
        with pytest.raises(DomainError):
            classify_rank(n, 100, 10)
