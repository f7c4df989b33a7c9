"""Acceptance gate: ten end-to-end criteria, each printing one pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines
as they complete."""

import time

import mpmath
import numpy as np

from qbounds import (BoundParams, eb_rate_bound, eb_rate_bound_continuous,
                     entropy, entropy_d1, entropy_d2, johnson_radius,
                     johnson_radius_d1)
from qbounds.errors import DomainError, PreconditionError
from qbounds.geometry import (SUPPORTED_PRIMES, baseline_rank, derive_c_n0,
                              derive_N, paper_tables, threshold_F,
                              threshold_F_array)
from qbounds.oracle import eb_soundness_sweep, max_code_size
from qbounds.qcore import stirling_bounds
from qbounds.suites import SUITES

SEED = 1  # for the seeded suites; the others ignore it


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_n0_tables():
    tables = paper_tables()
    t0 = time.perf_counter()
    mismatches = []
    for p in SUPPORTED_PRIMES:
        derived = derive_c_n0(p)
        expected = tables["n0"][p]
        if derived.n0 != expected:
            mismatches.append((p, derived.n0, expected))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    report(1, "n0(p) derivation matches published table for nine primes",
           ok, f"{elapsed:.1f}s" + (f", mismatches={mismatches}"
                                    if mismatches else ""))


def test_criterion_02_N_tables_and_anchor_scan():
    tables = paper_tables()
    t0 = time.perf_counter()
    mismatches = []
    anchor_failures = []
    for p in SUPPORTED_PRIMES:
        N = derive_N(p).N
        if N != tables["N"][p]:
            mismatches.append((p, N, tables["N"][p]))
            continue
        ns = np.arange(16, N + 1)
        F = threshold_F_array(p, ns)
        base = np.array([baseline_rank(int(n)) for n in ns], dtype=float)
        if not np.all(F > base):
            anchor_failures.append((p, int(ns[np.argmin(F > base)])))
        if threshold_F(p, N + 1) > baseline_rank(N + 1):
            anchor_failures.append((p, N + 1, "should fail"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and not anchor_failures and elapsed < 120.0
    report(2, "N(p) derivation and full anchor scan on [16, N(p)]",
           ok, f"{elapsed:.1f}s" + (f", {mismatches}{anchor_failures}"
                                    if mismatches or anchor_failures else ""))


def test_criterion_03_f1_crossover():
    rep = SUITES["f1"](SEED)
    f1_29 = rep.payload["f1_29"]
    f1_31 = rep.payload["f1_31"]
    ok = (rep.passed
          and 0.375 - f1_29 >= 1e-9
          and f1_31 - 0.375 >= 1e-9)
    report(3, "f1(p) strictly increasing on primes 3..101 with 3/8 "
              "crossover between 29 and 31",
           ok, f"f1(29)={f1_29:.6f}, f1(31)={f1_31:.6f}")


def test_criterion_04_rank_bound_monotonicity():
    rep = SUITES["monotonicity"](SEED)
    report(4, "rank bound at relative distance 1/3 is strictly below the "
              "bound at 1/4 on the full prime/length grid",
           rep.passed, f"{rep.instances_checked} pairs"
           + (f", violation={rep.counterexample}" if not rep.passed else ""))


def test_criterion_05_envelope():
    rep = SUITES["envelope"](SEED)
    stars = rep.payload["n_star"] if rep.passed else {}
    # at p=3 the lower inequality n/4 < F(n,3) must already hold by n=92
    lower_at_92 = threshold_F(3, 92) > 92 / 4
    ok = (rep.passed and len(stars) == len(SUPPORTED_PRIMES)
          and max(stars.values()) <= 10 ** 5 and lower_at_92)
    report(5, "n/4 < F(n,p) <= sqrt(3)n/4 from some n* <= 1e5 per prime, "
              "lower inequality at (p=3, n=92)",
           ok, f"max n*={max(stars.values()) if stars else '-'}")


# [q, n, d, A_q(n, d)] in sweep order
CRITERION_06_SOLVED = [
    [2, 5, 2, 16], [2, 6, 2, 32], [2, 7, 2, 64], [2, 7, 3, 16],
    [2, 8, 2, 128], [2, 9, 2, 256], [2, 10, 2, 512], [2, 11, 2, 1024],
    [2, 12, 2, 2048], [3, 4, 2, 27], [3, 5, 2, 81], [3, 5, 3, 18],
    [3, 6, 2, 243], [3, 7, 2, 729], [3, 8, 2, 2187], [3, 9, 2, 6561],
    [3, 10, 2, 19683], [3, 11, 2, 59049], [3, 12, 2, 177147],
    [5, 3, 2, 25], [5, 4, 2, 125], [5, 5, 2, 625], [5, 6, 2, 3125],
    [5, 7, 2, 15625], [5, 8, 2, 78125]]


def test_criterion_06_bound_soundness_vs_oracle():
    size, _ = max_code_size(3, 4, 3)
    rep = eb_soundness_sweep(q_set=(2, 3, 5), n_max=12)
    # 70 instances in the space budget, 90 outside the bound's preconditions;
    # the budgets of space, candidates and work, not a clock, decide which
    # 25 are solved: every d = 2 instance, A_2(7, 3) and A_3(5, 3)
    ok = (size == 9 and rep.passed and rep.payload["total_instances"] == 70
          and rep.payload["skipped_precondition"] == 90
          and rep.payload["skipped_resource"] == 45
          and rep.instances_checked == 25
          and rep.payload["solved"] == CRITERION_06_SOLVED)
    report(6, "rate bound sound against every code solved exactly within "
              "the oracle's budgets; A_3(4,3)=9 found",
           ok, f"solved={rep.instances_checked}, "
               f"skipped_resource={rep.payload['skipped_resource']}, "
               f"skipped_precondition={rep.payload['skipped_precondition']}")


def test_criterion_07_lemma_checks():
    pig = SUITES["pigeonhole"](SEED)
    joh = SUITES["johnson"](SEED)
    # radii 0 and n are decided in closed form; these floors keep enough
    # checks at the radii that count balls through the distance kernel
    pig_inner = pig.instances_checked - pig.payload["degenerate_radius"]
    joh_inner = joh.instances_checked - joh.payload["degenerate_radius"]
    ok = (pig.passed and joh.passed
          and pig.instances_checked >= 200 and joh.instances_checked >= 200
          and pig_inner >= 100 and joh_inner >= 30)
    report(7, "pigeonhole and Johnson-ball lemma checks over all centers "
              "for >= 200 seeded random codes each, >= 100 and >= 30 of "
              "them at a radius 0 < e < n",
           ok, f"pigeonhole={pig.instances_checked} "
               f"({pig_inner} at 0 < e < n), "
               f"johnson={joh.instances_checked} ({joh_inner} at e > 0)")


def test_criterion_08_stirling_bracket():
    violations = []
    # the true remainder sits only ~1/(360 k^3) below the bracket's upper
    # edge, inside float64 noise for k ~ 1e3, so evaluate the bracket at
    # high precision
    with mpmath.workdps(40):
        lnfact = mpmath.mpf(0)
        for k in range(1, 10 ** 4 + 1):
            lnfact += mpmath.log(k)
            lo, hi = stirling_bounds(k, digits=40)
            if not lo < lnfact < hi:
                violations.append(k)
        for k in (10 ** 5, 10 ** 6):
            ref = mpmath.loggamma(k + 1)
            lo, hi = stirling_bounds(k, digits=40)
            if not lo < ref < hi:
                violations.append(k)
    report(8, "factorial log bracket holds for k in [1, 1e4] and at "
              "k in {1e5, 1e6}",
           not violations, f"violations={violations[:5]}" if violations
           else "10002 values")


def test_criterion_09_derivative_consistency():
    rng = np.random.default_rng(9)
    bad = []

    def sample_q():
        return int(rng.integers(2, 12))

    # first derivative: relative tolerance needs points away from the
    # zero of the derivative at x = (q-1)/q
    checked = 0
    while checked < 10 ** 3:
        q = sample_q()
        top = (q - 1) / q
        x = float(rng.uniform(0.02, top - 0.07))
        h = 1e-6
        fd = (entropy(q, x + h) - entropy(q, x - h)) / (2 * h)
        if abs(fd - entropy_d1(q, x)) > 1e-6 * max(abs(fd), 1e-3):
            bad.append(("d1", q, x))
        checked += 1

    checked = 0
    while checked < 10 ** 3:
        q = sample_q()
        top = (q - 1) / q
        x = float(rng.uniform(0.02, 0.98 * top))
        h = 1e-5
        fd = (entropy(q, x + h) - 2 * entropy(q, x)
              + entropy(q, x - h)) / h ** 2
        if abs(fd - entropy_d2(q, x)) > 1e-5 * abs(fd):
            bad.append(("d2", q, x))
        checked += 1

    checked = 0
    while checked < 10 ** 3:
        q = sample_q()
        top = (q - 1) / q
        delta = float(rng.uniform(0.02, 0.9 * top))
        h = 1e-7
        fd = (johnson_radius(q, delta + h)
              - johnson_radius(q, delta - h)) / (2 * h)
        if abs(fd - johnson_radius_d1(q, delta)) > 1e-6 * abs(fd):
            bad.append(("J'", q, delta))
        checked += 1

    report(9, "closed-form derivatives agree with central finite "
              "differences on 1e3 random points each",
           not bad, f"failures={bad[:3]}" if bad else "3000 points")


def test_criterion_10_relaxation_ordering():
    rng = np.random.default_rng(10)
    checked = 0
    violations = []
    while checked < 10 ** 4:
        q = int(rng.integers(2, 12))
        n = int(rng.integers(20, 2000))
        top = (q - 1) / q
        delta = float(rng.uniform(0.02, 0.95 * top))
        params = BoundParams(q=q, n=n, delta=delta)
        try:
            fin = eb_rate_bound(params)
            cont = eb_rate_bound_continuous(params)
        except (DomainError, PreconditionError):
            continue
        checked += 1
        if cont.rate_upper < fin.rate_upper:
            violations.append((q, n, delta))
    report(10, "continuous relaxation never falls below the finite-length "
               "bound on a 1e4-point random grid",
           not violations, f"{checked} points"
           + (f", violations={violations[:3]}" if violations else ""))
