"""Tests for the threshold layer: constants, F(n, p), table derivation,
and rank classification."""

from fractions import Fraction

import collections
import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounds import (Classification, DerivedCN0, DerivedN, DomainError,
                     PreconditionError, baseline_rank, classify_rank,
                     codim_guarantees, constants, derive_N, derive_c_n0,
                     entropy, envelope_check, f1_monotonicity_scan,
                     johnson_radius, paper_tables, rank_bound, threshold_F,
                     threshold_F_array)
import qbounds.precision
from qbounds import geometry
from qbounds.geometry import SUPPORTED_PRIMES, primes_up_to
from qbounds.qcore import _johnson_ceil


# the anchor comparison F(n, p) > baseline_rank(n) and the envelope's two
# sides, n/4 < F(n, p) and F(n, p) < sqrt(3) n/4, as ``_violation`` takes them
_ANCHOR = ((lambda m, n: m.num(geometry._baseline(n)), 1),)
_QUARTER = ((lambda m, n: m.num(n) / 4, 1),)
_UPPER = ((lambda m, n: m.sqrt(3) * m.num(n) / 4, -1),)


def _violations(p, lo, hi, rhss, digits=None, last=False):
    """``(ns, escalations)``: every n in [lo, hi] that ``_violation`` names,
    in walk order, found by restarting the walk past each one, and the
    escalations of all the walks."""
    found, escalations = [], 0
    while True:
        n, esc = geometry._violation(p, lo, hi, rhss, digits, last)
        escalations += esc
        if n is None:
            return found, escalations
        found.append(n)
        lo, hi = (lo, n - 1) if last else (n + 1, hi)


def _anchor_signs(p, n_hi, digits=None):
    """``(signs, escalations)`` of the guarded anchor comparison
    F(n, p) > baseline_rank(n) over [16, n_hi], read off the failures
    ``_violation`` names walking up; walking down names the same."""
    up, escalations = _violations(p, 16, n_hi, _ANCHOR, digits)
    down, _ = _violations(p, 16, n_hi, _ANCHOR, digits, last=True)
    assert down == up[::-1]
    failures = set(up)
    signs = [-1 if n in failures else 1 for n in range(16, n_hi + 1)]
    return np.array(signs), escalations


def _dense_c_n0(p, digits=None):
    """``derive_c_n0``'s record from one guarded walk down over all of
    [16, end], the comparison made at every n."""
    c = geometry._published_c()[p]
    _, end, escalations = geometry._scan_end(p, c, 0, digits)
    last, esc = geometry._violation(p, 16, end,
                                    ((lambda m, n: m.num(c) * n, -1),),
                                    digits, last=True)
    return DerivedCN0(p=p, c=c, n0=16 if last is None else last + 1, cap=end,
                      last_violation=last, escalations=escalations + esc)


def _dense_N(p, digits=None):
    """``derive_N``'s record from one guarded walk up over all of
    [16, end], the comparison made at every n."""
    _, end, escalations = geometry._scan_end(p, Fraction(3, 8),
                                             Fraction(1, 8), digits)
    first, esc = geometry._violation(p, 16, end, _ANCHOR, digits)
    return DerivedN(p=p, N=first - 1, first_failure=first,
                    escalations=escalations + esc)


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
            assert arr[i] == pytest.approx(threshold_F(3, int(ns[i])), rel=1e-14)

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
        # past n_mono, F(n, p) - c n decreases; it is negative at the end
        res = derive_c_n0(p)
        with mpmath.workdps(50):
            c = mpmath.mpf(res.c.numerator) / res.c.denominator
            f1 = constants(p, digits=50).f1
            n_mono = int(mpmath.ceil(2.5 / ((c - f1) * mpmath.log(p)))) + 1
            assert res.cap >= n_mono
            assert threshold_F(p, res.cap, digits=50) < c * res.cap

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
        # the records, escalations included, are those of a walk that
        # compares at every n of [16, end]
        assert derive_c_n0(p, digits) == _dense_c_n0(p, digits)
        assert derive_N(p, digits) == _dense_N(p, digits)

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_differences_decrease_past_n_mono(self, p):
        # the property the bisections rest on, at 50 digits: past n_mono,
        # F(n + 1, p) - F(n, p) < s for s = c(p) and s = 3/8
        rng = random.Random(p)
        for s, t in ((geometry._published_c()[p], 0),
                     (Fraction(3, 8), Fraction(1, 8))):
            n_mono, end, _ = geometry._scan_end(p, s, t, None)
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
        # walk below n_mono runs (here over nothing) and n0 = 16
        monkeypatch.setattr(geometry, "_published_c", lambda: {3: c})
        assert geometry._scan_end(3, c, 0, None)[0] == 16
        res = derive_c_n0(3)
        assert res == _dense_c_n0(3)
        assert (res.n0, res.last_violation) == (16, None)

    @pytest.mark.parametrize("scan, p, n_mono", [
        (derive_c_n0, 3, 1000), (derive_c_n0, 3, 1907), (derive_c_n0, 3, 1908),
        (derive_c_n0, 3, 1968), (derive_c_n0, 29, 208_255),
        (derive_c_n0, 29, 208_256), (derive_c_n0, 29, 230_592),
        (derive_N, 29, 40_000), (derive_N, 29, 145_708),
        (derive_N, 29, 145_709), (derive_N, 29, 193_113)])
    def test_a_later_n_mono_changes_nothing(self, monkeypatch, scan, p,
                                            n_mono):
        # the difference decreases past any n at or above the proven
        # n_mono, so a later one is as valid.  n0: from n_mono past the
        # last violation on, the walk down from n_mono - 1 finds it instead
        # of the bisection.  N: a walk up to n_mono + 7 >= 145,716 meets
        # the first failure; a shorter one leaves it to the bisections
        expected = scan(p)
        scan_end = geometry._scan_end

        def later(*args):
            proven, end, escalations = scan_end(*args)
            return max(n_mono, proven), end, escalations

        monkeypatch.setattr(geometry, "_scan_end", later)
        assert scan(p) == expected

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


def _block_scans(p):
    signs, escalations = _anchor_signs(p, 1000)
    return {"derive_c_n0": derive_c_n0(p), "derive_N": derive_N(p),
            "anchor_signs": (signs.tolist(), escalations),
            "envelope_sides": _violations(p, 16, 200, _QUARTER + _UPPER),
            "envelope_check": envelope_check(p, 16, 9000),
            # n_hi past the first block: the walk starts at the proven tail
            "envelope_tail": envelope_check(p, 16, 20_000),
            # no proof up to n_hi: the walk starts at n_hi
            "envelope_fails": envelope_check(p, 16, 40)}


class TestGuardedBlocks:
    @pytest.mark.parametrize("block", [1, 7, 64, geometry._BLOCK])
    @pytest.mark.parametrize("p", [3, 7, 29])
    def test_block_size_changes_nothing(self, monkeypatch, p, block):
        # blocks of 7 and 64 split the ranges unevenly: this covers block
        # edges, both walk directions, the N walk's exit below the top
        # block and, for p = 29, its walk up past n_mono before the
        # bisections
        expected = _block_scans(p)
        monkeypatch.setattr(geometry, "_BLOCK", block)
        assert _block_scans(p) == expected

    @pytest.mark.parametrize("p", [3, 7])
    def test_anchor_signs_match_scalar_comparisons(self, p):
        # every failure the walk names, up and down, is a scalar one
        signs, escalations = _anchor_signs(p, 1000)
        assert escalations == 0
        assert signs.tolist() == [
            1 if threshold_F(p, n) > baseline_rank(n) else -1
            for n in range(16, 1001)]
        assert {-1, 1} <= set(signs.tolist())

    @pytest.mark.parametrize("p", [3, 7])
    def test_envelope_sides_match_scalar_comparisons(self, p):
        # each side alone and both together, walked up and down
        def quarter(n):
            return n / 4 < threshold_F(p, n)

        def upper(n):
            return threshold_F(p, n) < math.sqrt(3) * n / 4

        for rhss, holds in ((_QUARTER, quarter), (_UPPER, upper),
                            (_QUARTER + _UPPER,
                             lambda n: quarter(n) and upper(n))):
            bad = [n for n in range(16, 201) if not holds(n)]
            assert _violations(p, 16, 200, rhss) == (bad, 0)
            assert _violations(p, 16, 200, rhss, last=True) == (bad[::-1], 0)
        assert bad

    @pytest.mark.parametrize("last", [False, True])
    def test_a_nan_difference_escalates(self, last):
        # a right-hand side that is NaN in double precision is never taken
        # as proven: each n escalates, and 50 digits find n/4 < F(n, 3) on
        # [64, 80] (n* = 63)
        def rhs(m, n):
            return m.num(n) / 4 if m.digits else m.num(n) * math.nan

        assert geometry._violation(3, 64, 80, ((rhs, 1),), None,
                                   last) == (None, 17)

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_envelope_evaluates_nothing_past_its_proven_tail(self, monkeypatch,
                                                            p):
        # the walk covers [16, tail_proven_from] only, and from there on
        # both sides hold by proof; a scalar check agrees over 10^4 more n
        threshold, top = geometry._threshold_F, []

        def recording(m, p, n):
            if isinstance(n, np.ndarray):
                top.append(n.max())
            return threshold(m, p, n)

        monkeypatch.setattr(geometry, "_threshold_F", recording)
        tail = envelope_check(p, 16, 10 ** 5).payload["tail_proven_from"]
        assert tail <= 128 and top and max(top) <= tail
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

    def test_small_n_has_no_F(self):
        rep = classify_rank(3, 10, 5)
        assert rep.F_value is None
        assert rep.classification is Classification.MAX_RANK_ONLY
