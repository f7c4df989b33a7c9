"""Rank thresholds for Z_p^r symmetry: the constants f1..f5(p), the
threshold F(n, p), the baseline classification rank, and the exhaustive
scans that re-derive the published c/n0 and N tables.

Every scan walks n in cache-sized blocks, evaluates F once per block in
double precision and escalates a comparison to high precision
(``strict_sign``) only when its margin is below ``DECISION_MARGIN``, so
results are identical to a full high-precision scan.  The n0 scan runs
top-down and the N scan bottom-up, each stopping at the block that decides
it; ``escalations`` counts the comparisons a scan made and escalated.  Each
comparison is one difference written over the numeric context.  numpy is
imported only by the functions that build arrays, and the published
tables are read from ``paper_constants.json`` on first use.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .eb_bounds import (_QUARTER, _THIRD, _check_odd_prime, _rank_bound,
                        is_prime)
from .errors import DomainError, PreconditionError, check_int
from . import precision
from .precision import escalation_digits, evaluate, strict_sign
from .qcore import _entropy, _johnson_radius
from .report import VerificationReport

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def paper_tables() -> dict:
    """The published c(p)/n0(p)/N(p) tables (provenance: paper-constant)."""
    import importlib.resources
    raw = json.loads(importlib.resources.files("qbounds.data")
                     .joinpath("paper_constants.json").read_text())
    return {
        "provenance": raw["provenance"],
        "primes": tuple(raw["primes"]),
        "c": {int(p): Fraction(*v) for p, v in raw["c"].items()},
        "n0": {int(p): v for p, v in raw["n0"].items()},
        "N": {int(p): v for p, v in raw["N"].items()},
    }


@functools.lru_cache(maxsize=1)
def _published_c() -> dict:
    """The published c(p) table, read from the data file on first use."""
    return paper_tables()["c"]


class PrimeConstants(NamedTuple):
    """The f1..f5 bundle for one prime."""

    p: int
    f1: float
    f2: float
    f3: float
    f4: float
    f5: float


def _constants(m, p):
    J = _johnson_radius(m, p, Fraction(1, 4))
    lp = m.log(p)
    f1 = (1 - _entropy(m, p, J)) / 2
    f2 = (m.log(p * (p - 1) * (1 - J) * m.sqrt(2 * m.pi * J) / (4 * J)) / lp
          + 2 / (13 * lp) - 2.5 * m.log(2) / lp)
    f3 = 1 / (6 * lp) + 1 / (lp * (1 - J))
    return f1, f2, f3, 1 / lp, J


@functools.lru_cache(maxsize=256, typed=True)
def _constant_values(p, digits):
    return evaluate(digits, _constants, p)


def constants(p: int, digits=None) -> PrimeConstants:
    """The five threshold constants of a prime:

        f1 = (1/2)(1 - H_p(J)),  J = J_p(1/4)
        f2 = log_p(p(p-1)(1-J) sqrt(2 pi J) / (4J)) + 2/(13 ln p) - 2.5 log_p 2
        f3 = 1/(6 ln p) + 1/(ln p (1-J))
        f4 = 1/ln p
        f5 = J
    """
    _check_odd_prime(p)
    return PrimeConstants(p, *_constant_values(p, digits))


def _threshold_F(m, p, n):
    f1, f2, f3, f4, f5 = _constant_values(p, m.digits)
    return (f1 * n + 2.5 * m.log(n) / m.log(p) + f2
            + f3 / (n - 1) + f4 / (f5 * (n - 1) - 2))


def _check_F_domain(n):
    # n >= 16 gives f5 (n-1) > 2 too: f5 = J_p(1/4) falls towards
    # 1 - sqrt(3)/2 > 2/15 (676 > 675) as p grows
    if n < 16:
        raise PreconditionError(f"F(n, p) requires n >= 16, got n={n}")


def threshold_F(p: int, n: int, digits=None):
    """The rank threshold F(n, p) = f1 n + 2.5 log_p n + f2 + f3/(n-1)
    + f4/(f5 (n-1) - 2)."""
    _check_odd_prime(p)
    check_int("n", n, 1)
    _check_F_domain(n)
    return evaluate(digits, _threshold_F, p, n)


@functools.cache
def _numpy():
    """The double-precision numeric context over numpy arrays."""
    import numpy as np
    return SimpleNamespace(log=np.log, sqrt=np.sqrt, pi=np.pi,
                           num=lambda x: np.asarray(x, dtype=np.float64),
                           one=1.0, digits=None)


def threshold_F_array(p: int, ns: np.ndarray) -> np.ndarray:
    """Vectorized double-precision F(n, p) over an integer array of n:
    threshold_F's own formula over the numpy context."""
    _check_odd_prime(p)
    m = _numpy()
    ns = m.num(ns)
    if ns.size:
        _check_F_domain(ns.min())
    return _threshold_F(m, p, ns)


def baseline_rank(n: int) -> int:
    """Smallest symmetry rank already classified by the prior theorems:
    floor(3n/8)+2 for n = 2, 4 mod 8, floor(3n/8)+1 otherwise (n >= 13),
    and the maximal rank floor(n/2) for 5 <= n <= 12."""
    check_int("n", n, 5)
    return n // 2 if n <= 12 else _baseline(n)


def _baseline(n):
    """baseline_rank(n) for n >= 13, over integers and integer arrays alike."""
    return 3 * n // 8 + 1 + ((n % 8 == 2) | (n % 8 == 4))


class DerivedCN0(NamedTuple):
    p: int
    c: Fraction
    n0: int
    cap: int  # the proven end of the scan
    last_violation: int | None  # None if F <= c n on all of F's domain
    escalations: int


# n per block of a guarded scan: its temporaries (64 KiB) stay in cache
_BLOCK = 1 << 13


def _guarded_blocks(p, lo, hi, rhss, digits, descending=False):
    """Yield ``(start, signs, escalations)`` per block of ``_BLOCK`` values
    of n in [lo, hi], bottom-up or top-down: ``signs[j, i]`` is the sign
    (+1/-1) of F(n, p) - rhss[j](m, n) at n = start + i, F evaluated once
    per block; a comparison within the decision margin is re-decided by
    ``strict_sign``, and ``escalations`` counts those."""
    escalation_digits(digits)  # a bad digits fails even if nothing escalates
    import numpy as np
    m = _numpy()
    starts = range(lo, hi + 1, _BLOCK)
    for start in reversed(starts) if descending else starts:
        ns = np.arange(start, min(start + _BLOCK, hi + 1), dtype=np.int64)
        F = _threshold_F(m, p, m.num(ns))
        signs = np.empty((len(rhss), ns.size), dtype=np.int8)
        escalations = 0
        for row, rhs in zip(signs, rhss):
            diff = F - rhs(m, ns)
            np.sign(diff, out=row, casting="unsafe")
            for i in np.flatnonzero(np.abs(diff) < precision.DECISION_MARGIN):
                n = start + int(i)
                row[i], esc = strict_sign(
                    lambda m: _threshold_F(m, p, n) - rhs(m, n), digits)
                escalations += esc
        yield start, signs, escalations


def _scan_end(p, s, t, digits, n=None):
    """``(n, escalations)``: the first of n, 2n, 4n, ... with
    F(n, p) < s n + t, once f1 < s is proven.  With n None the doubling
    starts at n_mono = ceil(2.5/((s - f1) ln p)) + 1 and the result holds
    for all m >= n: as f3, f4, f5 > 0, g(m) = F(m, p) - s m - t has
    g'(m) < f1 - s + 2.5/(m ln p), so g decreases from n_mono on."""
    _check_odd_prime(p)
    def gap(m):
        return m.num(s) - _constant_values(p, m.digits)[0]

    sign, esc = strict_sign(gap, digits)
    if sign < 0:
        raise DomainError(f"f1({p}) > {s}: F(n, {p}) - {s} n is unbounded")
    if n is None:
        n = evaluate(escalation_digits(digits),
                     lambda m: int(m.ceil(2.5 / (gap(m) * m.log(p))))) + 1
    while True:
        _check_F_domain(n)
        sign, more = strict_sign(
            lambda m: _threshold_F(m, p, n) - m.num(s) * n - m.num(t), digits)
        esc += more
        if sign < 0:
            return n, esc
        n *= 2


def derive_c_n0(p: int, digits=None) -> DerivedCN0:
    """Re-derive n0(p): the least n0 with F(n, p) <= c(p) n for every
    n >= n0, taking c(p) from the published table.  The guarded scan runs
    down from the end ``_scan_end`` proves for (c(p), 0) to the last n
    with F > c n."""
    c = _published_c().get(p)
    if c is None:
        raise DomainError(f"no published c(p) for p={p}")
    end, escalations = _scan_end(p, c, 0, digits)
    last = None
    for start, (signs,), esc in _guarded_blocks(
            p, 16, end, (lambda m, n: m.num(c) * n,), digits, descending=True):
        escalations += esc
        viol = (signs > 0).nonzero()[0]
        if viol.size:
            last = start + int(viol[-1])
            break
    return DerivedCN0(p=p, c=c, n0=16 if last is None else last + 1,
                      cap=end, last_violation=last, escalations=escalations)


class DerivedN(NamedTuple):
    p: int
    N: int
    first_failure: int
    escalations: int


def derive_N(p: int, digits=None) -> DerivedN:
    """Re-derive N(p): the largest N with F(n, p) > baseline_rank(n) for
    all n in [16, N]; also reports the first failing n (= N + 1), so the
    anchor claim holds on [16, n_hi] iff first_failure > n_hi.  As
    baseline_rank(n) >= 3n/8 + 1/8, the claim fails at the first
    end = 16 2^k with F(end, p) < 3 end/8 + 1/8 (``_scan_end``; f1(p) > 3/8
    rules it out); the guarded scan runs up from 16 to the first failure."""
    end, escalations = _scan_end(p, Fraction(3, 8), Fraction(1, 8), digits,
                                 16)
    for start, (signs,), esc in _guarded_blocks(
            p, 16, end, (lambda m, n: m.num(_baseline(n)),), digits):
        escalations += esc
        fail = (signs < 0).nonzero()[0]
        if fail.size:
            first = start + int(fail[0])
            break
    if first == 16:
        raise DomainError(f"anchor property already fails at n = 16 for p = {p}")
    return DerivedN(p=p, N=first - 1, first_failure=first,
                    escalations=escalations)


def f1_monotonicity_scan(p_max: int, digits=None) -> VerificationReport:
    """Verify that f1(p) strictly increases over all primes in [3, p_max]
    and that f1(29) < 3/8 < f1(31).  Requires p_max >= 31."""
    check_int("p_max", p_max, 3)
    if p_max < 31:
        raise PreconditionError(f"p_max must be >= 31, got {p_max}")
    primes = [p for p in primes_up_to(p_max) if p >= 3]
    f1 = {p: constants(p).f1 for p in primes}
    escalations = 0
    checked = 0
    for a, b in zip(primes, primes[1:]):
        checked += 1
        s, esc = strict_sign(lambda m: _constant_values(b, m.digits)[0]
                             - _constant_values(a, m.digits)[0], digits)
        escalations += esc
        if s <= 0:
            return VerificationReport(
                suite="f1-monotonicity", instances_checked=checked, passed=False,
                counterexample={"p_low": a, "p_high": b,
                                "f1_low": f1[a], "f1_high": f1[b]})
    for p, want_below in ((29, True), (31, False)):
        checked += 1
        s, esc = strict_sign(
            lambda m: m.num(3) / 8 - _constant_values(p, m.digits)[0], digits)
        escalations += esc
        if (s > 0) != want_below:
            return VerificationReport(
                suite="f1-monotonicity", instances_checked=checked, passed=False,
                counterexample={"p": p, "f1": f1[p], "three_eighths": 0.375})
    return VerificationReport(
        suite="f1-monotonicity", instances_checked=checked, passed=True,
        counterexample=None,
        payload={"f1_29": f1[29], "f1_31": f1[31], "escalations": escalations})


def envelope_check(p: int, n_lo: int, n_hi: int,
                   digits=None) -> VerificationReport:
    """Find the minimal n* in [n_lo, n_hi] from which
    n/4 < F(n, p) <= sqrt(3) n / 4 holds for every n up to n_hi.

    Both comparisons are guarded by ``strict_sign``; an exact tie on the
    upper side is irrational and so cannot occur."""
    _check_odd_prime(p)
    check_int("n_lo", n_lo, 16)
    check_int("n_hi", n_hi, n_lo + 1)
    last_bad, escalations = None, 0
    for start, (above, below), esc in _guarded_blocks(
            p, n_lo, n_hi, (lambda m, n: m.num(n) / 4,
                            lambda m, n: m.sqrt(3) * m.num(n) / 4), digits):
        escalations += esc
        bad = ((above < 0) | (below > 0)).nonzero()[0]
        if bad.size:
            last_bad = start + int(bad[-1])
    if last_bad == n_hi:
        return VerificationReport(
            suite="envelope", instances_checked=n_hi - n_lo + 1, passed=False,
            counterexample={"p": p, "n": n_hi, "F": threshold_F(p, n_hi)})
    n_star = n_lo if last_bad is None else last_bad + 1
    return VerificationReport(
        suite="envelope", instances_checked=n_hi - n_lo + 1, passed=True,
        counterexample=None,
        payload={"p": p, "n_star": n_star, "escalations": escalations})


# one formula per flag of codim_guarantees, so that a re-decision evaluates
# its own: F(n, p), the rank bounds at m = floor(n/2), delta = 1/4 and 1/3
_CODIM_FORMULAS = (
    lambda m, p, n: _threshold_F(m, p, n),
    lambda m, p, n: _rank_bound(m, p, n // 2, _QUARTER).r_upper,
    lambda m, p, n: _rank_bound(m, p, n // 2, _THIRD).r_upper)


def _exceeds(r: int, value, formula, digits) -> bool:
    """r > value, ``value`` being ``formula(m)`` at ``digits``; within the
    decision margin of it ``strict_sign`` re-decides r - formula(m).  r is
    compared with floats, never converted, so any integer r works."""
    margin = precision.DECISION_MARGIN
    if not value - margin <= r <= value + margin:
        return r > value
    return strict_sign(lambda m: m.num(r) - formula(m), digits)[0] > 0


class CodimReport(NamedTuple):
    p: int
    n: int
    r: int
    applicable: bool
    F_value: float
    tau1_codim_cap: Fraction  # (n+3)/4
    tau2_codim_cap: Fraction  # (n+1)/3
    rank_bound_quarter: float
    rank_bound_third: float
    exceeds_quarter: bool
    exceeds_third: bool


def codim_guarantees(p: int, n: int, r: int, digits=None) -> CodimReport:
    """Codimension caps for the two small-codimension symmetries forced by
    a rank above the threshold: codim <= (n+3)/4 and codim <= (n+1)/3.

    The contradiction driving both caps is the rank bound evaluated at
    m = floor(n/2) with delta = 1/4 and 1/3; a weight-w image vector
    corresponds to a fixed-point set of codimension 2w.  The three values
    are one evaluation after this function's own checks: n >= 16 puts
    them in their domains (m >= 8 and 8 J_p(1/4) > 8 * 2/15 > 1).
    """
    _check_odd_prime(p)
    if p > 29:
        raise DomainError(f"codim guarantees cover primes <= 29, got {p}")
    check_int("n", n, 16)
    check_int("r", r, 1)
    values = evaluate(digits, lambda m: [f(m, p, n) for f in _CODIM_FORMULAS])
    applicable, exceeds_quarter, exceeds_third = (
        _exceeds(r, v, lambda m, f=f: f(m, p, n), digits)
        for f, v in zip(_CODIM_FORMULAS, values))
    return CodimReport(
        p=p, n=n, r=r, F_value=values[0], applicable=applicable,
        tau1_codim_cap=Fraction(n + 3, 4), tau2_codim_cap=Fraction(n + 1, 3),
        rank_bound_quarter=values[1], rank_bound_third=values[2],
        exceeds_quarter=exceeds_quarter, exceeds_third=exceeds_third)


class Classification(Enum):
    IMPOSSIBLE = "IMPOSSIBLE"
    MAX_RANK_ONLY = "MAX_RANK_ONLY"
    BASELINE = "BASELINE"
    MAIN_THEOREM = "MAIN_THEOREM"
    NO_CONCLUSION = "NO_CONCLUSION"


class ThresholdReport(NamedTuple):
    p: int
    n: int
    r: int
    F_value: float | None
    baseline: int
    max_rank: int
    classification: Classification


def classify_rank(p: int, n: int, r: int, digits=None) -> ThresholdReport:
    """Deterministic classification of a rank r against all three
    thresholds, strongest applicable conclusion first:

    - r > floor(n/2): impossible (exceeds the maximal symmetry rank);
    - r = floor(n/2): maximal-rank classification;
    - r >= baseline_rank(n): prior classification theorems apply;
    - r > F(n, p): the rank-threshold classification applies;
    - otherwise no conclusion.
    """
    _check_odd_prime(p)
    base = baseline_rank(n)  # checks n >= 5
    check_int("r", r, 0)
    max_rank = n // 2
    F = evaluate(digits, _threshold_F, p, n) if n >= 16 and p <= 29 else None
    if r > max_rank:
        cls = Classification.IMPOSSIBLE
    elif r == max_rank:
        cls = Classification.MAX_RANK_ONLY
    elif r >= base:
        cls = Classification.BASELINE
    elif F is not None and _exceeds(r, F, lambda m: _threshold_F(m, p, n),
                                    digits):
        cls = Classification.MAIN_THEOREM
    else:
        cls = Classification.NO_CONCLUSION
    return ThresholdReport(p=p, n=n, r=r, F_value=F, baseline=base,
                           max_rank=max_rank, classification=cls)
