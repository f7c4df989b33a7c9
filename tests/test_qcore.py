"""Tests for the special-function layer.

Derived expectations are computed by independent oracles (exhaustive
enumeration, exact big-integer combinatorics, finite differences,
high-precision log-gamma) rather than by the functions under test.
"""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qbounds import (DomainError, ResourceBudgetError, entropy, entropy_d1,
                     entropy_d2, hamming_ball_volume, johnson_radius,
                     johnson_radius_d1, stirling_bounds)
from qbounds.qcore import BALL_VOLUME_BITS, _johnson_ceil


class TestEntropy:
    def test_maximum_at_q_minus_1_over_q(self):
        assert entropy(3, 2 / 3) == pytest.approx(1.0, abs=1e-12)
        assert entropy(2, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_log_zero_convention(self):
        assert entropy(5, 0) == 0.0
        assert entropy(5, 1) == pytest.approx(math.log(4) / math.log(5))

    def test_regression_third(self):
        # frozen from an independent 50-digit evaluation of the defining
        # formula (recorded to 12 digits)
        assert entropy(3, Fraction(1, 3)) == pytest.approx(
            0.789690082143, abs=5e-13)

    def test_high_precision_path_agrees(self):
        hp = entropy(3, Fraction(1, 3), digits=50)
        assert float(hp) == pytest.approx(entropy(3, 1 / 3), rel=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            entropy(3, x)

    def test_bad_alphabet(self):
        with pytest.raises(DomainError):
            entropy(1, 0.5)

    def test_increasing_then_concave_on_grid(self):
        for q in (2, 3, 5, 29):
            top = (q - 1) / q
            xs = np.linspace(1e-3, top - 1e-3, 1000)
            d1 = np.array([entropy_d1(q, x) for x in xs])
            assert (d1 > 0).all()
            xs2 = np.linspace(1e-3, 1 - 1e-3, 1000)
            d2 = np.array([entropy_d2(q, x) for x in xs2])
            assert (d2 < 0).all()


class TestEntropyDerivatives:
    def test_critical_points(self):
        assert entropy_d1(3, 2 / 3) == pytest.approx(0.0, abs=1e-12)
        assert entropy_d1(2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_d2_closed_form(self):
        assert entropy_d2(2, 0.5) == pytest.approx(-4.0 / math.log(2))
        assert entropy_d2(3, 0.5) == pytest.approx(-4.0 / math.log(3))

    def test_d1_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for q in (2, 3, 5):
            crit = (q - 1) / q
            xs = rng.uniform(0.05, 0.95, size=200)
            xs = xs[np.abs(xs - crit) > 0.05]
            h = 1e-6
            for x in xs:
                fd = (entropy(q, x + h) - entropy(q, x - h)) / (2 * h)
                assert fd == pytest.approx(entropy_d1(q, x), rel=1e-6)

    def test_d2_matches_finite_differences_of_d1(self):
        rng = np.random.default_rng(8)
        for q in (2, 3, 5):
            xs = rng.uniform(0.05, 0.95, size=200)
            h = 1e-6
            for x in xs:
                fd = (entropy_d1(q, x + h) - entropy_d1(q, x - h)) / (2 * h)
                assert fd == pytest.approx(entropy_d2(q, x), rel=1e-5)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_endpoints_rejected(self, x):
        with pytest.raises(DomainError):
            entropy_d1(3, x)
        with pytest.raises(DomainError):
            entropy_d2(3, x)


class TestJohnsonRadius:
    def test_endpoints(self):
        for q in (2, 3, 5, 7):
            assert johnson_radius(q, 0) == 0.0
            top = Fraction(q - 1, q)
            assert johnson_radius(q, top) == pytest.approx(float(top))

    def test_paper_anchor_q3(self):
        assert johnson_radius(3, 0.25) <= 0.14

    def test_strictly_increasing_and_sandwich(self):
        for q in (2, 3, 7):
            top = (q - 1) / q
            deltas = np.linspace(0, top, 400)
            vals = np.array([johnson_radius(q, d) for d in deltas])
            assert (np.diff(vals) > 0).all()
            interior = deltas[1:-1]
            jv = vals[1:-1]
            assert (jv >= interior / 2 - 1e-12).all()
            assert (jv <= interior + 1e-12).all()

    def test_derivative_floor_and_value(self):
        assert johnson_radius_d1(2, 0) == pytest.approx(0.5)
        assert johnson_radius_d1(3, 0.25) == pytest.approx(0.5 * (5 / 8) ** -0.5)
        for q in (2, 3, 11):
            for d in np.linspace(0, (q - 1) / q - 0.01, 50):
                assert johnson_radius_d1(q, d) >= 0.5

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for q in (2, 3, 5):
            top = (q - 1) / q
            h = 1e-8
            for d in rng.uniform(0.01, top - 0.05, size=100):
                fd = (johnson_radius(q, d + h) - johnson_radius(q, d - h)) / (2 * h)
                assert fd == pytest.approx(johnson_radius_d1(q, d), rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            johnson_radius(3, 0.7)
        with pytest.raises(DomainError):
            johnson_radius_d1(3, Fraction(2, 3))  # derivative unbounded


class TestJohnsonCeil:
    def test_against_80_digits(self):
        # seeded doubles, the smallest subnormal and the double just below
        # (q-1)/q, against an 80-digit ceiling of n J_q(delta)
        rng = random.Random(12)
        for q in (2, 3, 4, 5, 7, 11, 256):
            top = Fraction(q - 1, q)
            below = float(top)
            if below >= top:
                below = math.nextafter(below, 0)
            deltas = [5e-324, below] + [rng.uniform(0, float(top))
                                        for _ in range(40)]
            for delta in deltas:
                n = rng.choice([1, 2, 9, rng.randint(1, 10 ** 6), 10 ** 12])
                with mpmath.workdps(80):
                    x = mpmath.mpf(delta)
                    nJ = n * x / (1 + mpmath.sqrt(1 - q * x / (q - 1)))
                    want = int(mpmath.ceil(nJ))
                assert _johnson_ceil(q, n, delta) == want, (q, n, delta)

    def test_rational_endpoints(self):
        for q in (2, 3, 7):
            for n in (1, 9, 100):
                assert _johnson_ceil(q, n, Fraction(0)) == 0
                assert _johnson_ceil(q, n, Fraction(q - 1, q)) == \
                    -(-n * (q - 1) // q)

    def test_exact_integer_values(self):
        # J_2(4/9) = 1/3 and J_3(1/2) = 1/3 (a double too): n J = 3 and 2
        assert _johnson_ceil(2, 9, Fraction(4, 9)) == 3
        assert _johnson_ceil(3, 6, 0.5) == 2


def brute_ball_count(q, n, e):
    """Independent oracle: enumerate the whole space and count by weight."""
    return sum(1 for w in itertools.product(range(q), repeat=n)
               if sum(s != 0 for s in w) <= e)


class TestHammingBallVolume:
    def test_center_and_whole_space(self):
        assert hamming_ball_volume(3, 6, 0) == 1
        assert hamming_ball_volume(3, 6, 6) == 3 ** 6
        assert hamming_ball_volume(2, 10, 10) == 2 ** 10

    def test_small_enumeration(self):
        assert hamming_ball_volume(3, 4, 1) == brute_ball_count(3, 4, 1) == 9

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_brute_force(self, q):
        for n in range(1, 9 if q < 5 else 7):
            for e in range(n + 1):
                assert hamming_ball_volume(q, n, e) == brute_ball_count(q, n, e)

    def test_dominates_top_shell(self):
        for q in (2, 3, 5):
            for n in range(2, 12):
                for e in range(n + 1):
                    assert (hamming_ball_volume(q, n, e)
                            >= math.comb(n, e) * (q - 1) ** e)

    def test_domain(self):
        with pytest.raises(DomainError):
            hamming_ball_volume(3, 4, 5)
        with pytest.raises(DomainError):
            hamming_ball_volume(3, 4, -1)

    @pytest.mark.parametrize("q, n", [(2, 300), (11, 90), (257, 40)])
    def test_matches_binomial_sum(self, q, n):
        for e in range(n + 1):
            assert hamming_ball_volume(q, n, e) == sum(
                math.comb(n, i) * (q - 1) ** i for i in range(e + 1))

    def test_budget(self):
        # with n = 2^1000 the bound (e+1) (n(q-1))^e takes 1001 e + 7 bits:
        # e = 65 is within BALL_VOLUME_BITS = 2^16, e = 66 is not
        n = 2 ** 1000
        assert BALL_VOLUME_BITS == 1 << 16
        assert hamming_ball_volume(2, n, 65) == sum(
            math.comb(n, i) for i in range(66))
        for e in (66, n):
            with pytest.raises(ResourceBudgetError, match="65536"):
                hamming_ball_volume(2, n, e)


class TestStirlingBounds:
    def test_k1_brackets_zero(self):
        lo, hi = stirling_bounds(1)
        assert lo < 0.0 < hi

    def test_k10_brackets_exact(self):
        lo, hi = stirling_bounds(10)
        assert lo < math.log(3628800) < hi

    def test_large_k_brackets_loggamma(self):
        for k in (10 ** 5, 10 ** 6):
            with mpmath.workdps(50):
                ref = mpmath.loggamma(k + 1)
                lo, hi = stirling_bounds(k, digits=50)
                assert lo < ref < hi

    def test_bracket_ordering(self):
        for k in (1, 2, 17, 999):
            lo, hi = stirling_bounds(k)
            assert lo < hi

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling_bounds(0)


def _log_binomial_bracket(n, e, digits=None):
    """Robbins bracket of ln C(n, e) from ``stirling_bounds``."""
    lo_n, hi_n = stirling_bounds(n, digits)
    lo_e, hi_e = stirling_bounds(e, digits)
    lo_r, hi_r = stirling_bounds(n - e, digits)
    return lo_n - hi_e - hi_r, hi_n - lo_e - lo_r


class TestLogBinomialEstimate:
    def test_small_brackets_exact(self):
        for n, e in ((4, 2), (10, 5)):
            lo, hi = _log_binomial_bracket(n, e)
            assert lo <= math.log(math.comb(n, e)) <= hi

    def test_cap_formula(self):
        # the width is the sum over k = n, e, n - e of 1/(12k) - 1/(12k+1)
        lo, hi = _log_binomial_bracket(100, 25, digits=50)
        width = sum(Fraction(1, 12 * k) - Fraction(1, 12 * k + 1)
                    for k in (100, 25, 75))
        assert float(hi - lo) == pytest.approx(float(width), rel=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_bracket_sweep(self, q):
        # the bracket of log_q C(n, e)
        lq = math.log(q)
        for n in range(2, 61):
            for e in range(1, n):
                lo, hi = _log_binomial_bracket(n, e)
                exact = math.log(math.comb(n, e)) / lq
                assert lo / lq <= exact <= hi / lq
