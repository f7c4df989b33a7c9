"""Tests for the threshold layer: constants, F(n, p), table derivation,
and rank classification."""

from fractions import Fraction

import collections
import functools
import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qbounds import (Classification, DomainError, PreconditionError,
                     baseline_rank, classify_rank, codim_guarantees,
                     constants, derive_N, derive_c_n0, entropy,
                     envelope_check, f1_monotonicity_scan, johnson_radius,
                     paper_tables, rank_bound, threshold_F, threshold_F_array)
import qbounds.precision
from qbounds import geometry
from qbounds.geometry import SUPPORTED_PRIMES, primes_up_to
from qbounds.qcore import _johnson_ceil


# right-hand sides rhs(n) of the table comparisons F(n, p) vs rhs(n), each
# as a pair: over an integer array in double precision, and over one int at
# the current mpmath precision
@functools.cache
def _c_rhs(c):
    return (lambda ns: float(c) * ns,
            lambda n: mpmath.mpf(c.numerator) / c.denominator * n)


_BASELINE_RHS = (lambda ns: 3 * ns // 8 + 1 + ((ns % 8 == 2) | (ns % 8 == 4)),
                 baseline_rank)
_QUARTER_RHS = (lambda ns: ns / 4, lambda n: mpmath.mpf(n) / 4)
_UPPER_RHS = (lambda ns: math.sqrt(3) * ns / 4,
              lambda n: mpmath.sqrt(3) * n / 4)


@functools.lru_cache(maxsize=None)
def _dense_signs(p, lo, hi, rhs):
    """The signs of F(n, p) - rhs(n) at every n in [lo, hi], found without
    the search or its cut-off: ``threshold_F_array`` at every n, and each
    n where |diff| < 1e-6 re-decided at 50 digits."""
    ns = np.arange(lo, hi + 1)
    diff = threshold_F_array(p, ns) - rhs[0](ns)
    signs = np.where(diff > 0, 1, -1)
    with mpmath.workdps(50):
        for i in np.flatnonzero(np.abs(diff) < 1e-6):
            n = lo + int(i)
            signs[i] = 1 if threshold_F(p, n, digits=50) - rhs[1](n) > 0 else -1
    signs.flags.writeable = False
    return signs


def _violations(p, lo, hi, sides, digits=None, last=False):
    """``(ns, escalations)``: every n in [lo, hi] at which the search finds
    a side of ``sides`` failing, in search order, found by restarting the
    search past each one, and the escalations of all the searches."""
    verdict = geometry._enclosure(p, sides)
    found, escalations = [], 0
    while True:
        n, esc = geometry._search(p, verdict, sides, lo, hi + 1, digits, last)
        escalations += esc
        if n is None:
            return found, escalations
        found.append(n)
        lo, hi = (lo, n - 1) if last else (n + 1, hi)


def _anchor_signs(p, n_hi, digits=None):
    """``(signs, escalations)`` of the guarded anchor comparison
    F(n, p) > baseline_rank(n) over [16, n_hi], read off the failures the
    search finds going up; going down finds the same."""
    up, escalations = _violations(p, 16, n_hi, [geometry._ANCHOR], digits)
    down, _ = _violations(p, 16, n_hi, [geometry._ANCHOR], digits, last=True)
    assert down == up[::-1]
    failures = set(up)
    signs = [-1 if n in failures else 1 for n in range(16, n_hi + 1)]
    return np.array(signs), escalations


class TestConstants:
    def test_f1_definitional_identity(self):
        for p in primes_up_to(101):
            if p < 3:
                continue
            k = constants(p)
            expected = 0.5 * (1 - entropy(p, johnson_radius(p, Fraction(1, 4))))
            assert k.f1 == pytest.approx(expected, rel=1e-12)

    def test_f4_f5_identities(self):
        for p in (3, 13, 29):
            k = constants(p)
            assert k.f4 == pytest.approx(1 / math.log(p), rel=1e-14)
            assert k.f5 == pytest.approx(johnson_radius(p, 0.25), rel=1e-14)

    def test_crossover_at_31(self):
        assert constants(29).f1 < 3 / 8 < constants(31).f1

    def test_f5_small_for_p3(self):
        assert constants(3).f5 <= 0.14

    def test_ranges(self):
        for p in primes_up_to(101):
            if p < 3:
                continue
            k = constants(p)
            assert 0 < k.f1 < 0.5
            assert 0 < k.f5 <= 0.25

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            constants(9)
        with pytest.raises(DomainError):
            constants(2)


class TestThresholdF:
    def test_above_quarter_n_at_92(self):
        assert 92 / 4 < threshold_F(3, 92)

    def test_linear_cap_at_2000(self):
        assert threshold_F(3, 2000) <= (9 / 32) * 2000

    def test_exceeds_baseline_at_16(self):
        assert threshold_F(3, 16) > baseline_rank(16) == 7

    def test_array_matches_scalar(self):
        ns = np.arange(16, 200)
        arr = threshold_F_array(3, ns)
        for i in (0, 50, 150):
            assert arr[i] == threshold_F(3, int(ns[i]))

    @pytest.mark.parametrize("ns", [np.array([16.5, 17]), np.array([16.0]),
                                    np.array([True, True]), []],
                             ids=["fractional", "integral-float", "bool",
                                  "empty-list"])
    def test_array_rejects_non_integer_kinds(self, ns):
        # as check_int does for a scalar n
        with pytest.raises(DomainError):
            threshold_F_array(3, ns)

    def test_array_takes_unsigned_ints(self):
        ns = np.arange(16, 40, dtype=np.uint32)
        assert (threshold_F_array(3, ns)
                == threshold_F_array(3, ns.astype(np.int64))).all()

    def test_high_precision_agrees(self):
        hp = threshold_F(3, 1908, digits=50)
        assert float(hp) == pytest.approx(threshold_F(3, 1908), rel=1e-13)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            threshold_F(3, 15)

    def test_n16_gives_f5_term_domain(self):
        # F's f4/(f5 (n-1) - 2) needs f5 (n-1) > 2; at n = 16 that is
        # 15 J_p(1/4) > 2, i.e. ceil(15 J_p(1/4)) >= 3, for every odd prime.
        # codim_guarantees' rank bounds at m = floor(n/2) >= 8 need
        # ceil(m J_p(delta)) >= 2 for delta = 1/4 and 1/3
        for p in primes_up_to(10 ** 4)[1:]:
            assert _johnson_ceil(p, 15, Fraction(1, 4)) >= 3, p
            for delta in (Fraction(1, 4), Fraction(1, 3)):
                assert _johnson_ceil(p, 8, delta) >= 2, (p, delta)


class TestBaselineRank:
    def test_formula_cases(self):
        assert baseline_rank(16) == 7    # 16 = 0 mod 8
        assert baseline_rank(18) == 8    # 18 = 2 mod 8
        assert baseline_rank(50) == 20   # 50 = 2 mod 8 -> floor(150/8)+2
        assert baseline_rank(12) == 6    # maximal-rank regime

    def test_mod_8_split(self):
        for n in range(13, 200):
            expected = 3 * n // 8 + (2 if n % 8 in (2, 4) else 1)
            assert baseline_rank(n) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            baseline_rank(4)


class TestTableDerivation:
    def test_n0_for_p3(self):
        res = derive_c_n0(3)
        assert res.n0 == 1908
        assert res.c == Fraction(9, 32)
        # minimality witness at the boundary
        assert threshold_F(3, 1907) > (9 / 32) * 1907
        assert res.last_violation == 1907

    def test_n0_for_p19(self):
        assert derive_c_n0(19).n0 == 2661

    def test_N_for_p3(self):
        res = derive_N(3)
        assert res.N == 91
        assert res.first_failure == 92

    def test_N_for_p23(self):
        assert derive_N(23).N == 1395

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_scan_end_is_proven(self, p):
        # from cap on, F(n, p) < c n: at cap and at sampled n up to 10^9,
        # at 50 digits
        res = derive_c_n0(p)
        rng = random.Random(p)
        with mpmath.workdps(50):
            c = mpmath.mpf(res.c.numerator) / res.c.denominator
            assert threshold_F(p, res.cap, digits=50) < c * res.cap
            for n in [res.cap + 1, 10 ** 9] + [
                    rng.randrange(res.cap, 10 ** k) for k in range(7, 10)
                    for _ in range(10)]:
                assert threshold_F(p, n, digits=50) < c * n, (p, n)

    @pytest.mark.parametrize("scan, args", [
        (derive_c_n0, (3,)), (derive_N, (3,)),
        (_anchor_signs, (3, 100)),
        (envelope_check, (3, 16, 200)), (f1_monotonicity_scan, (101,))],
        ids=["derive_c_n0", "derive_N", "anchor_signs", "envelope_check",
             "f1_monotonicity_scan"])
    @pytest.mark.parametrize("digits", [0, -4, True])
    def test_scans_reject_bad_digits(self, scan, args, digits):
        # also where no comparison escalates
        with pytest.raises(DomainError):
            scan(*args, digits=digits)

    def test_N_needs_f1_below_three_eighths(self):
        with pytest.raises(DomainError):
            derive_N(31)

    @pytest.mark.parametrize("digits", [None, 40])
    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_bisection_matches_the_dense_walk(self, p, digits):
        # n0 and N are those of a walk that compares at every n of
        # [16, 2 cap] (of [16, 2 first_failure]); the search escalates none
        cn0 = derive_c_n0(p, digits)
        signs = _dense_signs(p, 16, 2 * cn0.cap, _c_rhs(cn0.c))
        violations = np.flatnonzero(signs > 0)
        last = 16 + int(violations[-1]) if violations.size else None
        assert (cn0.n0, cn0.last_violation) == (
            16 if last is None else last + 1, last)
        assert last is None or last < cn0.cap
        N = derive_N(p, digits)
        signs = _dense_signs(p, 16, 2 * N.first_failure, _BASELINE_RHS)
        first = 16 + int(np.flatnonzero(signs < 0)[0])
        assert (N.N, N.first_failure) == (first - 1, first)
        assert cn0.escalations == N.escalations == 0

    @pytest.mark.parametrize("digits", [None, 40])
    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_anchor_signs_match_the_dense_walk(self, p, digits):
        signs, escalations = _anchor_signs(p, 1000, digits)
        assert signs.tolist() == _dense_signs(p, 16, 1000,
                                              _BASELINE_RHS).tolist()
        assert escalations == 0

    @pytest.mark.parametrize("n_lo, n_hi", [(16, 40), (16, 200), (16, 9000),
                                            (16, 20_000), (60, 90)])
    @pytest.mark.parametrize("digits", [None, 40])
    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_envelope_matches_the_dense_walk(self, p, digits, n_lo, n_hi):
        # n* is the n after the last one where a side fails, and the check
        # fails where that is n_hi
        bad = np.flatnonzero(
            (_dense_signs(p, n_lo, n_hi, _QUARTER_RHS) < 0)
            | (_dense_signs(p, n_lo, n_hi, _UPPER_RHS) > 0))
        last = n_lo + int(bad[-1]) if bad.size else None
        rep = envelope_check(p, n_lo, n_hi, digits)
        assert rep.passed == (last != n_hi)
        if rep.passed:
            assert rep.payload["n_star"] == (n_lo if last is None else last + 1)
            assert rep.payload["escalations"] == 0

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_differences_decrease_past_n_mono(self, p):
        # the property the tail proofs rest on, at 50 digits: past n_mono,
        # F(n + 1, p) - F(n, p) < s for s = c(p) and s = 3/8
        rng = random.Random(p)
        for s, end in ((paper_tables()["c"][p], derive_c_n0(p).cap),
                       (Fraction(3, 8), derive_N(p).first_failure)):
            n_mono, _ = geometry._falling(p, s, None)
            with mpmath.workdps(50):
                slope = mpmath.mpf(s.numerator) / s.denominator
                for n in [n_mono, n_mono + 1, end - 1, end, 10 ** 9] + [
                        rng.randrange(n_mono, 4 * end) for _ in range(40)]:
                    step = (threshold_F(p, n + 1, digits=50)
                            - threshold_F(p, n, digits=50))
                    assert step < slope, (p, s, n)

    @pytest.mark.parametrize("c", [Fraction(3, 2), Fraction(2)])
    def test_n0_without_violations_past_n_mono(self, monkeypatch, c):
        # F(16, 3) ~ 20.9 <= 16 c: no violation from n_mono = 16 on, so the
        # tail is proven from 16, the search runs over nothing and n0 = 16
        monkeypatch.setattr(geometry, "paper_tables", lambda: {"c": {3: c}})
        assert geometry._falling(3, c, None)[0] == 16
        res = derive_c_n0(3)
        assert (res.n0, res.cap, res.last_violation) == (16, 16, None)
        assert not (_dense_signs(3, 16, 1000, _c_rhs(c)) > 0).any()

    @pytest.mark.parametrize("scan, p, n_mono", [
        (derive_c_n0, 3, 1000), (derive_c_n0, 3, 1907), (derive_c_n0, 3, 1908),
        (derive_c_n0, 3, 1968), (derive_c_n0, 29, 208_255),
        (derive_c_n0, 29, 208_256), (derive_c_n0, 29, 230_592),
        (derive_N, 29, 40_000), (derive_N, 29, 145_708),
        (derive_N, 29, 145_709), (derive_N, 29, 193_113)])
    def test_a_later_n_mono_changes_nothing(self, monkeypatch, scan, p,
                                            n_mono):
        # h falls past any n at or above the proven n_mono, so a later one
        # is as valid: the tail proof starts there, at or past the answer
        # for some, and the search below it finds the same n0 (N)
        expected = scan(p)
        falling = geometry._falling

        def later(*args):
            proven, escalations = falling(*args)
            return max(n_mono, proven), escalations

        monkeypatch.setattr(geometry, "_falling", later)
        result = scan(p)
        if scan is derive_c_n0:  # the tail is proven from a later point
            assert result.cap >= n_mono
            result = result._replace(cap=expected.cap)
        assert result == expected

    @pytest.mark.parametrize("scan, args, margin, value, expected", [
        (derive_c_n0, (3,), 0.03, lambda r: r.n0, 1908),
        (derive_N, (3,), 0.03, lambda r: r.N, 91),
        (derive_c_n0, (29,), 1e-4, lambda r: r.n0, 208255),
        (derive_N, (29,), 1e-4, lambda r: r.N, 145715),
        (envelope_check, (3, 16, 200), 0.05, lambda r: r.payload["n_star"], 63),
        (f1_monotonicity_scan, (101,), 1e-3,
         lambda r: {k: v for k, v in r.payload.items() if k != "escalations"},
         {"f1_29": 0.37493847965667904, "f1_31": 0.3760368272332842}),
    ], ids=["derive_c_n0", "derive_N", "derive_c_n0-29", "derive_N-29",
            "envelope_check", "f1_monotonicity_scan"])
    def test_forced_escalation_changes_nothing(self, monkeypatch, scan, args,
                                               margin, value, expected):
        # widening the decision margin routes the closest comparisons a
        # scan makes (from |diff| ~ 5e-9, the slope bound at p = 29's
        # n_mono, up; f1 has ten closer than 1e-3) through the
        # high-precision path; the derived value must not change
        plain = scan(*args)
        monkeypatch.setattr(qbounds.precision, "DECISION_MARGIN", margin)
        result = scan(*args)
        assert value(result) == value(plain) == expected
        escalations = (result.escalations if hasattr(result, "escalations")
                       else result.payload["escalations"])
        assert escalations >= 1
        if scan is f1_monotonicity_scan:
            assert escalations == 10


class TestGuardedBlocks:
    """The search over blocks [a, b) of n: a block is decided by the
    enclosure or split, and a single n by ``strict_sign``."""

    @pytest.mark.parametrize("p", [3, 7])
    def test_anchor_signs_match_scalar_comparisons(self, p):
        # every failure the search names, up and down, is a scalar one
        signs, escalations = _anchor_signs(p, 1000)
        assert escalations == 0
        assert signs.tolist() == [
            1 if threshold_F(p, n) > baseline_rank(n) else -1
            for n in range(16, 1001)]
        assert {-1, 1} <= set(signs.tolist())

    @pytest.mark.parametrize("p", [3, 7])
    def test_envelope_sides_match_scalar_comparisons(self, p):
        # each side alone and both together, searched up and down
        def quarter(n):
            return n / 4 < threshold_F(p, n)

        def upper(n):
            return threshold_F(p, n) < math.sqrt(3) * n / 4

        lower_side, upper_side = geometry._ENVELOPE
        for sides, holds in (([lower_side], quarter), ([upper_side], upper),
                             ([lower_side, upper_side],
                              lambda n: quarter(n) and upper(n))):
            bad = [n for n in range(16, 201) if not holds(n)]
            assert _violations(p, 16, 200, sides) == (bad, 0)
            assert _violations(p, 16, 200, sides, last=True) == (bad[::-1], 0)
        assert bad

    @seed(31)
    @settings(max_examples=300, deadline=None, database=None)
    @given(p=st.sampled_from(SUPPORTED_PRIMES + (31, 37)), data=st.data())
    def test_enclosure_is_sound(self, p, data):
        # the 50-digit v = F(n, p) - s n lies inside the enclosure over
        # [a, b], widened by the cut-off, at a, at b and at 20 n in between:
        # the verdict proves neither F - s n - v > 0 nor F - s n - v < 0
        # over [a, b], as a lower bound above v or an upper one below it
        # would
        slopes = [Fraction(3, 8), Fraction(1, 4), "sqrt3/4"]
        if p in SUPPORTED_PRIMES:
            slopes.append(paper_tables()["c"][p])
        s = data.draw(st.sampled_from(slopes))
        a = data.draw(st.integers(16, 10 ** 6))
        b = data.draw(st.integers(a, 10 ** 6) | st.just(math.inf))
        ns = [a, *([] if b == math.inf else [b]), *data.draw(st.lists(
            st.integers(a, 10 ** 9 if b == math.inf else b),
            min_size=20, max_size=20))]
        with mpmath.workdps(50):
            slope = (mpmath.sqrt(3) / 4 if s == "sqrt3/4"
                     else mpmath.mpf(s.numerator) / s.denominator)
            values = [float(threshold_F(p, n, digits=50) - slope * n)
                      for n in ns]
        for v, n in zip(values, ns):
            for want in (1, -1):
                side = geometry._Side(float(slope), v, v, want, None)
                assert geometry._enclosure(p, [side])(a, b) != 1, (
                    s, a, b, n, want)

    @pytest.mark.parametrize("last", [False, True])
    def test_a_nan_difference_escalates(self, last):
        # a side that is NaN in double precision is never taken as proven:
        # no block is decided, each n escalates, and 50 digits find
        # n/4 < F(n, 3) on [64, 80] (n* = 63)
        def rhs(m, n):
            return m.num(n) / 4 if m.digits else m.num(n) * math.nan

        side = geometry._Side(math.nan, 0, 0, 1, rhs)
        verdict = geometry._enclosure(3, [side])
        assert geometry._search(3, verdict, [side], 64, 81, None,
                                last) == (None, 17)

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_envelope_evaluates_nothing_past_its_proven_tail(self, monkeypatch,
                                                            p):
        # the search covers [16, tail_proven_from) only, and from there on
        # both sides hold by proof; a scalar check agrees over 10^4 more n
        enclosure, threshold = geometry._enclosure, geometry._threshold_F
        ends, tops = [], []

        def recording_enclosure(p, sides):
            verdict = enclosure(p, sides)
            return lambda a, b: ends.append((a, b)) or verdict(a, b)

        def recording_F(m, p, n):
            tops.append(n)
            return threshold(m, p, n)

        monkeypatch.setattr(geometry, "_enclosure", recording_enclosure)
        monkeypatch.setattr(geometry, "_threshold_F", recording_F)
        tail = envelope_check(p, 16, 10 ** 5).payload["tail_proven_from"]
        assert tail <= 128 and ends
        assert max(b for _, b in ends if b < math.inf) <= tail
        assert max(tops, default=16) < tail
        monkeypatch.undo()
        for n in range(tail, tail + 10 ** 4 + 1):
            assert n / 4 < threshold_F(p, n) <= math.sqrt(3) * n / 4, n

    def test_envelope_failure_names_the_top_of_the_range(self):
        rep = envelope_check(3, 16, 40)  # n* = 63 for p = 3
        assert not rep.passed and rep.instances_checked == 25
        assert rep.counterexample == {"p": 3, "n": 40,
                                      "F": threshold_F(3, 40)}


class TestScans:
    def test_f1_scan_passes(self):
        rep = f1_monotonicity_scan(101)
        assert rep.passed
        assert rep.payload["f1_29"] < 0.375 < rep.payload["f1_31"]

    def test_f1_scan_composite_pmax(self):
        # non-prime p_max: still scans primes only
        assert f1_monotonicity_scan(100).passed

    def test_f1_scan_requires_31(self):
        with pytest.raises(PreconditionError):
            f1_monotonicity_scan(29)

    def test_envelope_p3(self):
        rep = envelope_check(3, 16, 10 ** 5)
        assert rep.passed
        assert rep.payload["n_star"] <= 92

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_envelope_tail_proof(self, p):
        # n* is the same whatever the top of the range: the proven tail
        # decides the rest, which is also why 10^9 takes milliseconds
        reports = [envelope_check(p, 16, n_hi) for n_hi in (10 ** 5, 10 ** 6,
                                                            10 ** 9)]
        assert all(rep.passed for rep in reports)
        assert len({rep.payload["n_star"] for rep in reports}) == 1
        assert [rep.instances_checked for rep in reports] == [
            10 ** 5 - 15, 10 ** 6 - 15, 10 ** 9 - 15]
        tail = reports[0].payload["tail_proven_from"]
        assert reports[0].payload["n_star"] <= tail <= 128
        assert {rep.payload["tail_proven_from"] for rep in reports} == {tail}

    @pytest.mark.parametrize("f1, passed", [(0.44, False), (0.25, True)],
                             ids=["f1-above-sqrt3-4", "f1-at-quarter"])
    def test_envelope_without_proof_scans_its_range(self, monkeypatch, f1,
                                                    passed):
        # f1 >= sqrt(3)/4 leaves the upper slope unproven (and F above
        # sqrt(3) n/4), f1 = 1/4 the lower one (with F still above n/4):
        # the check scans all of [16, n_hi] and reports what a comparison
        # at every n gives
        rest = geometry._constant_values(3, None)[1:]
        monkeypatch.setattr(geometry, "_constant_values",
                            lambda p, digits: (f1, *rest))
        rep = envelope_check(3, 16, 3000)
        bad = [n for n in range(16, 3001)
               if not n / 4 < threshold_F(3, n) <= math.sqrt(3) * n / 4]
        assert rep.passed == passed and rep.instances_checked == 2985
        if passed:
            assert rep.payload["tail_proven_from"] is None
            assert rep.payload["n_star"] == bad[-1] + 1
        else:
            assert bad[-1] == 3000
            assert rep.counterexample == {"p": 3, "n": 3000,
                                          "F": threshold_F(3, 3000)}

    def test_envelope_all_primes_at_cap(self):
        for p in SUPPORTED_PRIMES:
            F = threshold_F(p, 10 ** 5)
            assert 10 ** 5 / 4 < F <= math.sqrt(3) * 10 ** 5 / 4

    def test_f1_below_c_for_all_primes(self):
        paper = paper_tables()
        for p in SUPPORTED_PRIMES:
            assert constants(p).f1 < float(paper["c"][p])


class TestPaperTables:
    def test_parsed_once_and_read_only(self):
        # every call shares one parse of the data file; rebinding a table
        # in one call's dict leaves the next call's alone
        tables = paper_tables()
        assert tables["c"] is paper_tables()["c"]
        assert tables["c"][3] == Fraction(9, 32) and tables["N"][3] == 91
        tables["N"] = {3: 100}
        assert paper_tables()["N"][3] == 91
        with pytest.raises(TypeError):
            paper_tables()["n0"][3] = 1


class TestCodimGuarantees:
    def test_caps_and_applicability(self):
        rep = codim_guarantees(3, 2000, 600)
        assert rep.applicable
        assert rep.tau1_codim_cap == Fraction(2003, 4)
        assert rep.tau2_codim_cap == Fraction(2001, 3)
        assert rep.exceeds_quarter and rep.exceeds_third
        # an r past the largest double is compared, not converted
        assert codim_guarantees(3, 2000, 10 ** 400).exceeds_third

    def test_strict_boundary(self):
        F = threshold_F(3, 2000)
        r = math.ceil(F)
        assert codim_guarantees(3, 2000, r).applicable == (r > F)
        assert not codim_guarantees(3, 2000, math.floor(F)).applicable

    def test_even_codim_feasible(self):
        for n in range(16, 400):
            w_max = (n + 3) // 8
            assert w_max >= 1  # a weight-w vector realizes codim 2w <= (n+3)/4

    @pytest.mark.parametrize("digits", [None, 30])
    def test_fields_are_the_public_functions(self, digits):
        # one evaluation gives the values threshold_F and rank_bound give
        rng = random.Random(20)
        for p, _ in itertools.product(SUPPORTED_PRIMES,
                                      range(20 if digits is None else 4)):
            n = rng.choice((rng.randint(16, 300), rng.randint(16, 10 ** 6)))
            r = rng.randint(1, n // 2)
            rep = codim_guarantees(p, n, r, digits)
            F = threshold_F(p, n, digits)
            rb = [rank_bound(p, n // 2, delta, digits).r_upper
                  for delta in (Fraction(1, 4), Fraction(1, 3))]
            assert rep == (p, n, r, r > F, F, Fraction(n + 3, 4),
                           Fraction(n + 1, 3), *rb, r > rb[0], r > rb[1])
            assert classify_rank(p, n, r, digits).F_value == F

    def test_escalated_flags_are_the_double_ones(self, monkeypatch):
        # a margin wider than every |r - value| sends each of the three
        # comparisons to strict_sign, which re-decides it from its own value
        cases = []
        for p, n in ((3, 2000), (29, 300)):
            rep = codim_guarantees(p, n, 1)
            for v in rep.F_value, rep.rank_bound_quarter, rep.rank_bound_third:
                cases += [(p, n, math.floor(v)), (p, n, math.ceil(v))]
        plain = [codim_guarantees(*case) for case in cases]
        monkeypatch.setattr(qbounds.precision, "DECISION_MARGIN", 1e4)
        assert [codim_guarantees(*case) for case in cases] == plain

    def test_a_re_decision_evaluates_its_own_value_only(self, monkeypatch):
        # a margin of 1e4 re-decides all three flags, each once in double
        # precision and once at 50 digits, from its own formula: F once
        # and the two rank bounds once each per evaluation (7 and 14 calls
        # when each re-decision evaluated all three values)
        plain = codim_guarantees(3, 2000, 600)
        calls = collections.Counter()
        for name in ("_threshold_F", "_rank_bound"):
            monkeypatch.setattr(geometry, name, lambda *args, name=name,
                                fn=getattr(geometry, name):
                                calls.update([name]) or fn(*args))
        monkeypatch.setattr(qbounds.precision, "DECISION_MARGIN", 1e4)
        assert codim_guarantees(3, 2000, 600) == plain
        assert calls == {"_threshold_F": 3, "_rank_bound": 6}

    def test_domain(self):
        with pytest.raises(DomainError):
            codim_guarantees(31, 2000, 600)
        with pytest.raises(DomainError):
            codim_guarantees(3, 15, 5)


class TestClassifyRank:
    def test_spec_examples(self):
        assert classify_rank(3, 20, 10).classification is Classification.MAX_RANK_ONLY
        assert classify_rank(3, 50, 20).classification is Classification.BASELINE
        assert classify_rank(3, 2000, 600).classification is Classification.MAIN_THEOREM
        assert classify_rank(3, 50, 3).classification is Classification.NO_CONCLUSION
        assert classify_rank(3, 20, 11).classification is Classification.IMPOSSIBLE

    def test_monotone_in_r(self):
        strength = {
            Classification.NO_CONCLUSION: 0,
            Classification.MAIN_THEOREM: 1,
            Classification.BASELINE: 2,
            Classification.MAX_RANK_ONLY: 3,
            Classification.IMPOSSIBLE: 4,
        }
        for p, n in ((3, 20), (3, 50), (3, 2000), (29, 300)):
            levels = [strength[classify_rank(p, n, r).classification]
                      for r in range(0, n // 2 + 2)]
            assert levels == sorted(levels)

    def test_report_fields(self):
        rep = classify_rank(3, 2000, 600)
        assert rep.baseline == baseline_rank(2000)
        assert rep.max_rank == 1000
        assert rep.F_value == pytest.approx(threshold_F(3, 2000))

    @settings(max_examples=100, deadline=None, database=None)
    @given(p=st.sampled_from(SUPPORTED_PRIMES), n=st.integers(16, 10 ** 7),
           offset=st.sampled_from((-1, 0, 1)))
    def test_float_decisions_are_the_40_digit_ones(self, p, n, offset):
        # up to n = 10^7 the float error of F (<= 7e-10) is below the
        # decision margin, so a guarded double-precision decision of r > F
        # is the exact one
        r = round(threshold_F(p, n)) + offset
        assert (classify_rank(p, n, r).classification
                is classify_rank(p, n, r, digits=40).classification)
        flags = [(rep.applicable, rep.exceeds_quarter, rep.exceeds_third)
                 for rep in (codim_guarantees(p, n, r),
                             codim_guarantees(p, n, r, digits=40))]
        assert flags[0] == flags[1]

    def test_fewer_digits_decide_as_double_precision(self):
        # below a double's digits F and the rank bounds may land on the
        # other side of r (F(100, 3) = 38.29 is 37.5 at one digit); each
        # decision is still the double-precision one
        def decisions(p, n, r, digits):
            rep = codim_guarantees(p, n, r, digits)
            return (classify_rank(p, n, r, digits).classification,
                    rep.applicable, rep.exceeds_quarter, rep.exceeds_third)

        for p, n in itertools.product((3, 5, 7), range(16, 400, 3)):
            rep = codim_guarantees(p, n, 1)
            for r in {f(v) for f in (math.floor, math.ceil) for v in (
                    rep.F_value, rep.rank_bound_quarter, rep.rank_bound_third)}:
                want = decisions(p, n, r, None)
                for digits in (1, 2, 3, 5):
                    assert decisions(p, n, r, digits) == want, (p, n, r, digits)

    def test_small_n_has_no_F(self):
        rep = classify_rank(3, 10, 5)
        assert rep.F_value is None
        assert rep.classification is Classification.MAX_RANK_ONLY
