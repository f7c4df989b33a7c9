"""Rank thresholds for Z_p^r symmetry: the constants f1..f5(p), the
threshold F(n, p), the baseline classification rank, and the guarded
scans that re-derive the published c/n0 and N tables.

Every scan asks one question of one guarded walk, ``_violation``: the
first (or last) n in a range at which F(n, p) compares with a right-hand
side the wrong way.  It walks n in cache-sized blocks, evaluates F once per
block in double precision and escalates a comparison to high precision
(``strict_sign``) only where the one cut-off, ``precision.apart``, leaves
it undecided (a tie or a NaN), so results are identical to a full
high-precision scan; it stops in the block that holds the answer.  The far
end of each scan is proven: ``_first_negative`` proves a slope bound
negative at n_mono, from which the difference decreases, and then the
difference at doubling points.  Where that makes the wrong-sign n an
interval, ``_crossing`` bisects for its edge, one ``strict_sign`` a probe:
the n0 scan on [n_mono, end], the N scan per residue class mod 8 after a
walk up past n_mono.  The envelope walks down from where both of its sides
are proven.  ``escalations`` counts the comparisons a scan escalated;
numpy is imported only by the functions that build arrays.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .eb_bounds import (_QUARTER, _THIRD, _check_odd_prime, _rank_bound,
                        is_prime)
from .errors import DomainError, PreconditionError, check_int
from .precision import (apart, escalation_digits, evaluate, exceeds,
                        numpy_context, strict_sign)
from .qcore import _entropy, _johnson_radius
from .report import VerificationReport, first_failure

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


def threshold_F_array(p: int, ns):
    """Vectorized double-precision F(n, p) over an integer array of n:
    threshold_F's own formula over the numpy context.  As ``check_int``
    does for a scalar n, it rejects an array of any other kind, bool
    included."""
    _check_odd_prime(p)
    import numpy as np
    m = numpy_context()
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu":
        raise DomainError(f"ns must be an integer array, got dtype {ns.dtype}")
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


def _violation(p, lo, hi, rhss, digits, last=False):
    """``(n, escalations)``: the first n in [lo, hi] (the last with
    ``last``) at which the sign of F(n, p) - rhs(m, n) is not ``want`` for
    some ``(rhs, want)`` in ``rhss``; n is None if there is none.  The walk
    goes up from lo (down from hi with ``last``) in blocks of ``_BLOCK``
    values of n and stops in the block that holds the answer.  It evaluates
    F once per block in double precision; a difference not ``apart`` from 0
    is re-decided by ``strict_sign``, and ``escalations`` counts those."""
    escalation_digits(digits)  # a bad digits fails even if nothing escalates
    import numpy as np
    m = numpy_context()
    escalations = 0
    starts = range(lo, hi + 1, _BLOCK)
    for start in reversed(starts) if last else starts:
        ns = np.arange(start, min(start + _BLOCK, hi + 1), dtype=np.int64)
        F = _threshold_F(m, p, m.num(ns))
        hits = []
        for rhs, want in rhss:
            diff = want * (F - rhs(m, ns))  # positive where the sign is right
            decided = apart(diff, 0)
            near = np.flatnonzero(~decided | (diff < 0))  # not proven right
            wrong = decided[near]
            for j in np.flatnonzero(~wrong):
                n = start + int(near[j])
                sign, esc = strict_sign(
                    lambda m: _threshold_F(m, p, n) - rhs(m, n), digits)
                wrong[j] = sign != want
                escalations += esc
            if wrong.any():
                hits.append(int(near[wrong][-1 if last else 0]))
        if hits:
            return start + (max(hits) if last else min(hits)), escalations
    return None, escalations


def _first_negative(bounds, n, digits, ceiling=None):
    """``(n, escalations)``: proves ``bounds`` negative one after another,
    each ``bound(m, n)`` by ``strict_sign`` at the first of n, 2n, 4n, ...
    where it is, the next bound starting from there; n is the point of the
    last proof, None if a proof would pass ``ceiling`` (if given)."""
    escalations = 0
    for bound in bounds:
        while ceiling is None or n <= ceiling:
            sign, esc = strict_sign(lambda m: bound(m, n), digits)
            escalations += esc
            if sign < 0:
                break
            n *= 2
        else:
            return None, escalations
    return n, escalations


def _scan_end(p, s, t, digits):
    """``(n_mono, n, escalations)``: F(m, p) - s m - t strictly decreases
    on [n_mono, inf) and is negative at n, so at every m >= n, once f1 < s
    is proven.  As f3, f4, f5 > 0 (and f5 (m-1) > 2 on F's domain),
    g(m) = F(m, p) - s m - t has g'(m) < f1 - s + 2.5/(m ln p), a bound
    that falls as m grows: ``_first_negative`` proves it negative at
    n_mono, from which g decreases, and then g itself at n = n_mono 2^k.
    The doubling starts at the double-precision estimate
    ceil(2.5/((s - f1) ln p)) + 1 (at high precision only if f1 < s itself
    had to escalate), and not below 16."""
    _check_odd_prime(p)
    def gap(m):
        return m.num(s) - _constant_values(p, m.digits)[0]

    sign, esc = strict_sign(gap, digits)
    if sign < 0:
        raise DomainError(f"f1({p}) > {s}: F(n, {p}) - {s} n is unbounded")
    estimate = evaluate(escalation_digits(digits) if esc else None,
                        lambda m: int(m.ceil(2.5 / (gap(m) * m.log(p)))))
    n_mono, more = _first_negative(
        (lambda m, n: 2.5 / (n * m.log(p)) - gap(m),), max(estimate + 1, 16),
        digits)
    n, most = _first_negative(
        (lambda m, n: _threshold_F(m, p, n) - m.num(s) * n - m.num(t),),
        n_mono, digits)
    return n_mono, n, esc + more + most


def _crossing(p, lo, hi, rhs, digits, step=1):
    """``(n, escalations)``: the first n of lo + step k in (lo, hi] with
    F(n, p) < rhs(m, n), given that those n are a final segment that holds
    hi (F - rhs decreases there).  It bisects without evaluating lo or hi;
    each probe is one ``strict_sign``, as ``_violation`` re-decides an n."""
    escalations = 0
    while hi - lo > step:
        mid = lo + (hi - lo) // (2 * step) * step
        sign, esc = strict_sign(
            lambda m: _threshold_F(m, p, mid) - rhs(m, mid), digits)
        escalations += esc
        lo, hi = (mid, hi) if sign > 0 else (lo, mid)
    return hi, escalations


def derive_c_n0(p: int, digits=None) -> DerivedCN0:
    """Re-derive n0(p): the least n0 with F(n, p) <= c(p) n for every
    n >= n0, taking c(p) from the published table.  ``_scan_end`` proves
    for (c(p), 0) that F - c n decreases on [n_mono, end] and is negative
    at end, so the violations F > c n there are an initial segment, and a
    bisection finds the n after the last.  If that is n_mono, the guarded
    walk runs down from n_mono - 1 instead."""
    c = _published_c().get(p)
    if c is None:
        raise DomainError(f"no published c(p) for p={p}")
    n_mono, end, escalations = _scan_end(p, c, 0, digits)
    def rhs(m, n):
        return m.num(c) * n

    after, esc = _crossing(p, n_mono - 1, end, rhs, digits)
    last = after - 1
    if after == n_mono:
        last, more = _violation(p, 16, last, ((rhs, -1),), digits, last=True)
        esc += more
    return DerivedCN0(p=p, c=c, n0=16 if last is None else last + 1,
                      cap=end, last_violation=last,
                      escalations=escalations + esc)


class DerivedN(NamedTuple):
    p: int
    N: int
    first_failure: int
    escalations: int


def derive_N(p: int, digits=None) -> DerivedN:
    """Re-derive N(p): the largest N with F(n, p) > baseline_rank(n) for
    all n in [16, N]; also reports the first failing n (= N + 1), so the
    anchor claim holds on [16, n_hi] iff first_failure > n_hi.
    ``_scan_end`` proves for (3/8, 1/8) that g = F - 3n/8 - 1/8 decreases
    on [n_mono, inf) and is negative from end on, where the claim fails as
    baseline_rank(n) >= 3n/8 + 1/8 (f1(p) > 3/8 rules it out).  The guarded
    walk runs up from 16, over a block or more and past n_mono + 7.  If it
    meets no failure, each residue class mod 8, along which F - baseline is
    g plus a constant, bisects from its last walked n to its first n at or
    past end, and the first failure is the least of the eight."""
    n_mono, end, escalations = _scan_end(p, Fraction(3, 8), Fraction(1, 8),
                                         digits)
    def rhs(m, n):
        return m.num(_baseline(n))

    top = min(end, max(n_mono + 7, 16 + _BLOCK - 1))
    first, esc = _violation(p, 16, top, ((rhs, 1),), digits)
    if first is None:
        firsts, escs = zip(*(_crossing(p, lo, lo - (lo - end) // 8 * 8, rhs,
                                       digits, step=8)
                             for lo in range(top - 7, top + 1)))
        first, esc = min(firsts), esc + sum(escs)
    if first == 16:
        raise DomainError(f"anchor property already fails at n = 16 for p = {p}")
    return DerivedN(p=p, N=first - 1, first_failure=first,
                    escalations=escalations + esc)


def f1_monotonicity_scan(p_max: int, digits=None) -> VerificationReport:
    """Verify that f1(p) strictly increases over all primes in [3, p_max]
    and that f1(29) < 3/8 < f1(31).  Requires p_max >= 31."""
    check_int("p_max", p_max, 3)
    if p_max < 31:
        raise PreconditionError(f"p_max must be >= 31, got {p_max}")
    primes = [p for p in primes_up_to(p_max) if p >= 3]
    f1 = {p: constants(p).f1 for p in primes}
    payload = {"f1_29": f1[29], "f1_31": f1[31], "escalations": 0}

    def positive(diff):
        s, esc = strict_sign(diff, digits)
        payload["escalations"] += esc
        return s > 0

    def checks():
        for a, b in zip(primes, primes[1:]):
            rising = positive(lambda m: _constant_values(b, m.digits)[0]
                              - _constant_values(a, m.digits)[0])
            yield None if rising else {"p_low": a, "p_high": b,
                                       "f1_low": f1[a], "f1_high": f1[b]}
        for p, want_below in ((29, True), (31, False)):
            below = positive(
                lambda m: m.num(3) / 8 - _constant_values(p, m.digits)[0])
            yield None if below == want_below else {
                "p": p, "f1": f1[p], "three_eighths": 0.375}

    return first_failure("f1-monotonicity", checks(), payload)


def envelope_check(p: int, n_lo: int, n_hi: int,
                   digits=None) -> VerificationReport:
    """Find the minimal n* in [n_lo, n_hi] from which
    n/4 < F(n, p) <= sqrt(3) n / 4 holds for every n up to n_hi.

    Both comparisons are guarded by ``strict_sign``; an exact tie on the
    upper side is irrational and so cannot occur.  The check proves its
    tail instead of walking it: as f3, f4, f5 > 0 and f5 (m-1) > 2 for
    m >= 16, U(m) = F(m, p) - sqrt(3) m/4 and L(m) = F(m, p) - m/4 have

        U'(m) < f1 - sqrt(3)/4 + 2.5/(m ln p), a bound falling in m;
        L'(m) > f1 - 1/4 - f3/(m-1)^2 - f4 f5/(f5 (m-1) - 2)^2, rising in m.

    ``_first_negative`` proves U' < 0 and then U < 0 at points of
    n_lo, 2 n_lo, 4 n_lo, ..., up to n_hi, so U < 0 from the second point
    on; likewise -L' < 0 and then -L < 0.  From the larger of the two
    points, reported as ``tail_proven_from``, both sides hold for every n,
    and the guarded walk runs down from it to the last n where a side
    fails.  Without a proof up to n_hi (f1 >= sqrt(3)/4, f1 <= 1/4, or
    n_hi too small) the walk runs down from n_hi and ``tail_proven_from``
    is None.  Either way n* and the counterexample depend on n_hi only,
    and ``instances_checked`` = n_hi - n_lo + 1 counts every n decided, by
    walk or by proof."""
    _check_odd_prime(p)
    check_int("n_lo", n_lo, 16)
    check_int("n_hi", n_hi, n_lo + 1)
    def quarter(m, n):
        return m.num(n) / 4

    def upper(m, n):
        return m.sqrt(3) * m.num(n) / 4

    def upper_slope(m, n):  # the bound on U'(n)
        return (_constant_values(p, m.digits)[0] - m.sqrt(3) / 4
                + 2.5 / (n * m.log(p)))

    def lower_slope(m, n):  # minus the bound on L'(n)
        f1, _, f3, f4, f5 = _constant_values(p, m.digits)
        return (m.num(1) / 4 - f1 + f3 / (n - 1) ** 2
                + f4 * f5 / (f5 * (n - 1) - 2) ** 2)

    sides = ((upper_slope, lambda m, n: _threshold_F(m, p, n) - upper(m, n)),
             (lower_slope, lambda m, n: quarter(m, n) - _threshold_F(m, p, n)))
    ends, escs = zip(*(_first_negative(bounds, n_lo, digits, n_hi)
                       for bounds in sides))
    tail = None if None in ends else max(ends)
    last_bad, esc = _violation(p, n_lo, tail or n_hi,
                               ((quarter, 1), (upper, -1)), digits, last=True)
    failed = last_bad == n_hi
    return VerificationReport(
        suite="envelope", instances_checked=n_hi - n_lo + 1, passed=not failed,
        counterexample={"p": p, "n": n_hi, "F": threshold_F(p, n_hi)}
        if failed else None,
        payload=None if failed else {
            "p": p, "n_star": n_lo if last_bad is None else last_bad + 1,
            "escalations": sum(escs) + esc, "tail_proven_from": tail})


# one formula per flag of codim_guarantees, so that a re-decision evaluates
# its own: F(n, p), the rank bounds at m = floor(n/2), delta = 1/4 and 1/3
_CODIM_FORMULAS = (
    lambda m, p, n: _threshold_F(m, p, n),
    lambda m, p, n: _rank_bound(m, p, n // 2, _QUARTER).r_upper,
    lambda m, p, n: _rank_bound(m, p, n // 2, _THIRD).r_upper)


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
        exceeds(r, v, lambda m, f=f: m.num(r) - f(m, p, n), digits)
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
    elif F is not None and exceeds(
            r, F, lambda m: m.num(r) - _threshold_F(m, p, n), digits):
        cls = Classification.MAIN_THEOREM
    else:
        cls = Classification.NO_CONCLUSION
    return ThresholdReport(p=p, n=n, r=r, F_value=F, baseline=base,
                           max_rank=max_rank, classification=cls)
