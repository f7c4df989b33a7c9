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

from qbounds import (Classification, DomainError, PreconditionError,
                     baseline_rank, classify_rank, codim_guarantees,
                     constants, derive_N, derive_c_n0, entropy,
                     envelope_check, f1_monotonicity_scan, johnson_radius,
                     paper_tables, rank_bound, threshold_F,
                     threshold_F_array)
import qbounds.precision
from qbounds import geometry
from qbounds.geometry import SUPPORTED_PRIMES, primes_up_to
from qbounds.qcore import _johnson_ceil


def _anchor_signs(p, n_hi, digits=None):
    """``(signs, escalations)`` of the guarded anchor comparison
    F(n, p) > baseline_rank(n) over [16, n_hi]."""
    rhs = (lambda m, n: m.num(geometry._baseline(n)),)
    blocks = list(geometry._guarded_blocks(p, 16, n_hi, rhs, digits))
    return (np.concatenate([signs for _, (signs,), _ in blocks]),
            sum(esc for *_, esc in blocks))


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

    @pytest.mark.parametrize("scan, args, margin, value, expected", [
        (derive_c_n0, (3,), 0.03, lambda r: r.n0, 1908),
        (derive_N, (3,), 0.03, lambda r: r.N, 91),
        (envelope_check, (3, 16, 200), 0.05, lambda r: r.payload["n_star"], 63),
        (f1_monotonicity_scan, (101,), 1e-3,
         lambda r: {k: v for k, v in r.payload.items() if k != "escalations"},
         {"f1_29": 0.37493847965667904, "f1_31": 0.3760368272332842}),
    ], ids=["derive_c_n0", "derive_N", "envelope_check",
            "f1_monotonicity_scan"])
    def test_forced_escalation_changes_nothing(self, monkeypatch, scan, args,
                                               margin, value, expected):
        # widening the decision margin routes the tightest comparison
        # (|diff| ~ 1.1e-3, 1.5e-3, 3.4e-2 and 6.2e-5 on these ranges;
        # f1 has ten comparisons closer than 1e-3) through the
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
            "envelope_check": envelope_check(p, 16, 9000),
            "envelope_fails": envelope_check(p, 16, 40)}


class TestGuardedBlocks:
    @pytest.mark.parametrize("block", [1, 7, 64, geometry._BLOCK])
    @pytest.mark.parametrize("p", [3, 7])
    def test_block_size_changes_nothing(self, monkeypatch, p, block):
        # blocks of 7 and 64 split the ranges unevenly: this covers block
        # edges, both walk directions and the n0/N scans' exits below the
        # top block
        expected = _block_scans(p)
        monkeypatch.setattr(geometry, "_BLOCK", block)
        assert _block_scans(p) == expected

    @pytest.mark.parametrize("p", [3, 7])
    def test_anchor_signs_match_scalar_comparisons(self, p):
        signs, escalations = _anchor_signs(p, 1000)
        assert escalations == 0
        assert signs.tolist() == [
            1 if threshold_F(p, n) > baseline_rank(n) else -1
            for n in range(16, 1001)]
        assert {-1, 1} <= set(signs.tolist())

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
