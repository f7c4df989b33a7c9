"""Rank thresholds for Z_p^r symmetry: the constants f1..f5(p), the
threshold F(n, p), the baseline classification rank, and the guarded
scans that re-derive the published c/n0 and N tables.

Each scan compares F(n, p) with rhs(n) = s n + t(n): n0 takes s = c(p),
the envelope s = 1/4 and sqrt(3)/4, with t = 0, and N takes s = 3/8 and
t(n) = baseline_rank(n) - 3n/8, which depends on n mod 8 only.  With

    F(n, p) - s n = h(n) + B(n),   h(x) = (f1 - s) x + 2.5 log_p x + f2,
    B(x) = f3/(x - 1) + f4/(f5 (x - 1) - 2),

h is concave and, as f3, f4, f5 > 0 and f5 (x - 1) > 2 for x >= 16, B is
positive and decreasing.  So over the reals in [a, b], 16 <= a, b = inf
allowed, F(x, p) - s x lies in the enclosure

    [min(h(a), h(b)) + B(b),  h(clamp(x*, a, b)) + B(a)],

x* = 2.5/((s - f1) ln p) where h peaks if f1 < s, else x* = inf; h(inf)
is -inf in the lower bound unless f1 is ``apart`` above s.  Less the
largest (smallest) t(n) of the range, it bounds F - rhs.  A scan proves
its tail at the first of n, 2n, 4n, ... where the double-precision
``_enclosure`` decides [n, inf) (n0 and N from the n_mono of
``_falling``, the envelope from n_lo up to n_hi), and ``_search`` finds
the first (last) n below it where F - rhs has the wrong sign: a range the
enclosure puts ``apart`` from 0 is decided, any other is split, and a
single n is decided by ``strict_sign``, which escalates where the cut-off
leaves it undecided (a tie or a NaN).  So a scan answers as a comparison
at every n would; ``escalations`` counts the comparisons it escalated.

The double-precision enclosure is sound within the cut-off while n is at
most about 10^6: its terms are then at most about 10^5 in size and their
rounding error below 1e-10, under the cut-off's margin of 1e-9 (rounding
x* moves h(x*) only to second order, as h'(x*) = 0).  Past that a cut-off
relative to the size of the terms is needed.  Every F is the one
double-precision or mpmath formula ``_threshold_F``: ``threshold_F_array``
is ``threshold_F`` at each n of an array, and the scans import no numpy.
"""

from __future__ import annotations

import functools
import json
import math
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, NamedTuple

from .eb_bounds import (_QUARTER, _THIRD, _check_odd_prime, _rank_bound,
                        is_prime)
from .errors import DomainError, PreconditionError, check_int
from .precision import (apart, escalation_digits, evaluate, exceeds,
                        strict_sign)
from .qcore import _entropy, _johnson_radius
from .report import VerificationReport, first_failure

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def paper_tables() -> dict:
    """The published c(p)/n0(p)/N(p) tables (provenance: paper-constant):
    a fresh dict over the data file's one parse, its tables read-only."""
    return dict(_parsed_tables())


@functools.cache
def _parsed_tables():
    import importlib.resources
    raw = json.loads(importlib.resources.files("qbounds.data")
                     .joinpath("paper_constants.json").read_text())
    return {
        "provenance": raw["provenance"],
        "primes": tuple(raw["primes"]),
        "c": MappingProxyType({int(p): Fraction(*v)
                               for p, v in raw["c"].items()}),
        "n0": MappingProxyType({int(p): v for p, v in raw["n0"].items()}),
        "N": MappingProxyType({int(p): v for p, v in raw["N"].items()}),
    }


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
    """Double-precision ``threshold_F`` at each n of an integer array, as a
    float64 array of its shape.  As ``check_int`` does for a scalar n, it
    rejects an array of any other kind, bool included."""
    _check_odd_prime(p)
    import numpy as np
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu":
        raise DomainError(f"ns must be an integer array, got dtype {ns.dtype}")
    if ns.size:
        _check_F_domain(ns.min())
    return np.array([evaluate(None, _threshold_F, p, n)
                     for n in ns.ravel().tolist()],
                    dtype=np.float64).reshape(ns.shape)


def baseline_rank(n: int) -> int:
    """Smallest symmetry rank already classified by the prior theorems:
    floor(3n/8)+2 for n = 2, 4 mod 8, floor(3n/8)+1 otherwise (n >= 13),
    and the maximal rank floor(n/2) for 5 <= n <= 12."""
    check_int("n", n, 5)
    return n // 2 if n <= 12 else 3 * n // 8 + 1 + (n % 8 in (2, 4))


class DerivedCN0(NamedTuple):
    p: int
    c: Fraction
    n0: int
    cap: int  # from here on the enclosure proves F < c n for every n
    last_violation: int | None  # None if F <= c n on all of F's domain
    escalations: int


class _Side(NamedTuple):
    """F(n, p) - rhs(n) must have the sign ``want``, where rhs(n) - slope n
    lies in [t_lo, t_hi]; ``rhs(m, n)`` is rhs over a numeric context."""

    slope: float
    t_lo: float
    t_hi: float
    want: int
    rhs: Callable


# baseline_rank(n) - 3n/8 depends on n mod 8 only, from 1/8 to 3/2
_ANCHOR = _Side(0.375, 0.125, 1.5, 1, lambda m, n: m.num(baseline_rank(n)))
_ENVELOPE = (_Side(0.25, 0, 0, 1, lambda m, n: m.num(n) / 4),
             _Side(math.sqrt(3) / 4, 0, 0, -1,
                   lambda m, n: m.sqrt(3) * m.num(n) / 4))


def _enclosure(p, sides):
    """``verdict(a, b)``: 1 if the enclosure over [a, b] (b = inf allowed)
    puts want (F(n, p) - rhs(n)) ``apart`` above 0 for every side, -1 if
    apart below 0 for some side, else 0.  An end point's log term and B
    are evaluated once for all sides and ranges."""
    f1, f2, f3, f4, f5 = _constant_values(p, None)
    lp, inf = math.log(p), math.inf
    ends = {}

    def end(x):  # 2.5 log_p x + f2 and B(x)
        y = x - 1
        ends[x] = 2.5 * math.log(x) / lp + f2, f3 / y + f4 / (f5 * y - 2)
        return ends[x]

    shapes = []  # per side: f1 - s, x*, h(x*), h(inf) for the lower bound
    for side in sides:
        d = f1 - side.slope
        xs = max(2.5 / (-d * lp), 16) if d < 0 else inf
        shapes.append((d, xs, d * xs + end(xs)[0] if d < 0 else inf,
                       inf if d > 0 and apart(f1, side.slope) else -inf,
                       side.t_lo, side.t_hi, side.want))

    def verdict(a, b):
        ga, Ba = ends.get(a) or end(a)
        gb, Bb = (ends.get(b) or end(b)) if b < inf else (0, 0)
        result = 1
        for d, xs, top, h_inf, t_lo, t_hi, want in shapes:
            ha = d * a + ga
            hb = d * b + gb if b < inf else h_inf
            lower = min(ha, hb) + Bb - t_hi
            upper = (ha if xs <= a else top if xs <= b else hb) + Ba - t_lo
            if want < 0:
                lower, upper = -upper, -lower
            if upper < 0 and apart(upper, 0):
                return -1
            if not (lower > 0 and apart(lower, 0)):
                result = 0
        return result

    return verdict


def _tail(verdict, n, want, ceiling=math.inf):
    """The first of n, 2n, 4n, ... (not past ``ceiling``) from which the
    ``verdict`` is ``want``; None if there is none."""
    while n <= ceiling and verdict(n, math.inf) != want:
        n *= 2
    return n if n <= ceiling else None


def _search(p, verdict, sides, lo, hi, digits, last=False):
    """``(n, escalations)``: the first n in [lo, hi) (the last with
    ``last``) at which F(n, p) - rhs(n) has not the sign ``want`` for some
    side, None if there is none.  A range [a, b) is skipped if its
    ``verdict`` is 1, answers with its first (last) n if it is -1, and is
    split in two otherwise, the half nearer the answer searched first.  A
    single n is decided by ``strict_sign``."""
    escalation_digits(digits)  # a bad digits fails even if nothing escalates
    escalations = 0
    todo = [(lo, hi)] if lo < hi else []
    while todo:
        a, b = todo.pop()
        if b - a == 1:
            for side in sides:
                s, esc = strict_sign(
                    lambda m: _threshold_F(m, p, a) - side.rhs(m, a), digits)
                escalations += esc
                if s != side.want:
                    return a, escalations
            continue
        proven = verdict(a, b)
        if proven < 0:
            return (b - 1 if last else a), escalations
        if proven == 0:
            halves = (a, (a + b) // 2), ((a + b) // 2, b)
            todo += halves if last else halves[::-1]
    return None, escalations


def _falling(p, s, digits):
    """``(n_mono, escalations)``: ``strict_sign`` proves the slope of h,
    f1 - s + 2.5/(n ln p), negative at n_mono, the first of n, 2n, ... from
    n = ceil(x*) + 1 >= 16.  A DomainError unless f1(p) < s, also in double
    precision (else F - s n is unbounded, or no tail proof would end)."""
    _check_odd_prime(p)
    def gap(m):
        return m.num(s) - _constant_values(p, m.digits)[0]

    sign, escalations = strict_sign(gap, digits)
    if sign < 0 or not _constant_values(p, None)[0] < float(s):
        raise DomainError(f"f1({p}) > {s}: F(n, {p}) - {s} n is unbounded")
    n = evaluate(escalation_digits(digits) if escalations else None, lambda m:
                 max(16, int(m.ceil(2.5 / (gap(m) * m.log(p)))) + 1))
    while True:
        sign, esc = strict_sign(lambda m: 2.5 / (n * m.log(p)) - gap(m),
                                digits)
        escalations += esc
        if sign < 0:
            return n, escalations
        n *= 2


def derive_c_n0(p: int, digits=None) -> DerivedCN0:
    """Re-derive n0(p): the least n0 with F(n, p) <= c(p) n for every
    n >= n0, taking c(p) from the published table.  The enclosure proves
    F < c n on [cap, inf) at the first such cap of n_mono, 2 n_mono, ...,
    and the search runs down [16, cap) for the last violation."""
    c = paper_tables()["c"].get(p)
    if c is None:
        raise DomainError(f"no published c(p) for p={p}")
    n_mono, escalations = _falling(p, c, digits)
    sides = [_Side(float(c), 0, 0, -1, lambda m, n: m.num(c) * n)]
    verdict = _enclosure(p, sides)
    cap = _tail(verdict, n_mono, 1)
    last, esc = _search(p, verdict, sides, 16, cap, digits, last=True)
    return DerivedCN0(p=p, c=c, n0=16 if last is None else last + 1,
                      cap=cap, last_violation=last,
                      escalations=escalations + esc)


class DerivedN(NamedTuple):
    p: int
    N: int
    first_failure: int
    escalations: int


def derive_N(p: int, digits=None) -> DerivedN:
    """Re-derive N(p): the largest N with F(n, p) > baseline_rank(n) for
    all n in [16, N]; also reports the first failing n (= N + 1), so the
    anchor claim holds on [16, n_hi] iff first_failure > n_hi.  The
    enclosure proves F < 3n/8 + 1/8 <= baseline_rank(n) on [end, inf) at
    the first such end of n_mono, 2 n_mono, ..., and the search runs up
    [16, end) for the first failure, else end is the first."""
    n_mono, escalations = _falling(p, Fraction(3, 8), digits)
    verdict = _enclosure(p, [_ANCHOR])
    end = _tail(verdict, n_mono, -1)
    first, esc = _search(p, verdict, [_ANCHOR], 16, end, digits)
    first = end if first is None else first
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
    upper side is irrational and so cannot occur.  ``tail_proven_from`` is
    the first of n_lo, 2 n_lo, 4 n_lo, ..., up to n_hi, from which the
    enclosure proves both sides for every n, and the search runs down from
    below it; without one (f1 >= sqrt(3)/4, f1 <= 1/4, or n_hi too small)
    it is None and the search runs down from n_hi.  Either way n* and the
    counterexample depend on n_hi only, and ``instances_checked`` =
    n_hi - n_lo + 1 counts every n decided, by search or by proof."""
    _check_odd_prime(p)
    check_int("n_lo", n_lo, 16)
    check_int("n_hi", n_hi, n_lo + 1)
    verdict = _enclosure(p, _ENVELOPE)
    tail = _tail(verdict, n_lo, 1, n_hi)
    last_bad, esc = _search(p, verdict, _ENVELOPE, n_lo,
                            n_hi + 1 if tail is None else tail, digits,
                            last=True)
    failed = last_bad == n_hi
    return VerificationReport(
        suite="envelope", instances_checked=n_hi - n_lo + 1, passed=not failed,
        counterexample={"p": p, "n": n_hi, "F": threshold_F(p, n_hi)}
        if failed else None,
        payload=None if failed else {
            "p": p, "n_star": n_lo if last_bad is None else last_bad + 1,
            "escalations": esc, "tail_proven_from": tail})


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
