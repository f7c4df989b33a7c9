"""Rank thresholds for Z_p^r symmetry: the constants f1..f5(p), the
threshold F(n, p), the baseline classification rank, and the exhaustive
scans that re-derive the published c/n0 and N tables.

All scans run a vectorized double-precision pass and escalate individual
comparisons to high precision only when the margin is below the policy's
decision margin; results are identical to a full high-precision scan.
numpy is imported only by the functions that build arrays, and the
published tables are read from ``paper_constants.json`` on first use.
"""

from __future__ import annotations

import functools
import json
import math
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .eb_bounds import is_prime, rank_bound
from .errors import DomainError, PreconditionError
from .precision import (DEFAULT_POLICY, MP, PrecisionPolicy, evaluate,
                        strict_sign)
from .qcore import _entropy, _johnson_radius
from .report import VerificationReport

__all__ = [
    "PrimeConstants", "Classification", "ThresholdReport", "CodimReport",
    "DerivedCN0", "DerivedN", "paper_tables", "constants", "threshold_F",
    "threshold_F_array", "baseline_rank", "anchor_signs", "derive_c_n0",
    "derive_N", "f1_monotonicity_scan", "envelope_check", "codim_guarantees",
    "classify_rank", "primes_up_to",
]

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


def _check_odd_prime(p):
    if not is_prime(p) or p < 3:
        raise DomainError(f"expected a prime >= 3, got {p!r}")


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


def _threshold_F(m, p, n, k):
    f1, f2, f3, f4, f5 = k
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
    k = _constant_values(p, digits)
    _check_F_domain(n)
    return evaluate(digits, _threshold_F, p, n, k)


def threshold_F_array(p: int, ns: np.ndarray) -> np.ndarray:
    """Vectorized double-precision F(n, p) over an integer array of n:
    threshold_F's own formula over a numpy context."""
    _check_odd_prime(p)
    import numpy as np
    m = SimpleNamespace(log=np.log, sqrt=np.sqrt, pi=np.pi,
                        num=lambda x: np.asarray(x, dtype=np.float64), one=1.0)
    k = _constant_values(p, None)
    ns = m.num(ns)
    if ns.size:
        _check_F_domain(ns.min())
    return _threshold_F(m, p, ns, k)


def baseline_rank(n: int) -> int:
    """Smallest symmetry rank already classified by the prior theorems:
    floor(3n/8)+2 for n = 2, 4 mod 8, floor(3n/8)+1 otherwise (n >= 13),
    and the maximal rank floor(n/2) for 5 <= n <= 12."""
    if not isinstance(n, int) or n < 5:
        raise DomainError(f"baseline_rank requires an integer n >= 5, got {n!r}")
    if n <= 12:
        return n // 2
    return 3 * n // 8 + (2 if n % 8 in (2, 4) else 1)


class DerivedCN0(NamedTuple):
    p: int
    c: Fraction
    n0: int
    cap: int  # the proven end of the scan
    last_violation: int | None  # None if F <= c n on all of F's domain
    escalations: int


def _guarded_signs(p, ns, F, rhs, rhs_exact, policy):
    """Signs (+1/-1) of F(n, p) - rhs(n) over ``ns``, given F and the
    right-hand side as float arrays; each comparison closer than the
    decision margin is re-decided by ``strict_sign`` against the exact
    ``rhs_exact(n)``.  Returns ``(signs, escalations)``."""
    import numpy as np
    diff = F - rhs
    signs = np.sign(diff).astype(np.int8)
    escalations = 0
    for i in np.nonzero(np.abs(diff) < policy.decision_margin)[0]:
        n = int(ns[i])
        signs[i], esc = strict_sign(
            float(diff[i]),
            lambda: threshold_F(p, n, digits=policy.escalation_digits)
            - rhs_exact(n),
            policy)
        escalations += esc
    return signs, escalations


def _scan_end(p, s, t, policy):
    """``(n, escalations)`` with F(m, p) < s m + t proven for all m >= n: as
    f3, f4, f5 > 0, g(m) = F(m, p) - s m - t has g'(m) < f1 - s + 2.5/(m ln p),
    so once f1 < s, g decreases from n_mono = ceil(2.5/((s - f1) ln p)) + 1
    on, and doubling n from n_mono until g(n) < 0 finds the end."""
    hi = policy.escalation_digits
    gap = evaluate(hi, lambda m: m.num(s) - constants(p, hi).f1)
    n = evaluate(hi, lambda m: int(m.ceil(2.5 / (gap * m.log(p))))) + 1
    sign, esc = strict_sign(float(s) - constants(p).f1, lambda: gap, policy)
    if sign < 0:
        raise DomainError(f"f1({p}) > {s}: F(n, {p}) - {s} n is unbounded")
    while True:  # threshold_F rejects an n outside F's domain
        sign, more = strict_sign(
            threshold_F(p, n) - float(s) * n - float(t),
            lambda: threshold_F(p, n, digits=hi) - MP.num(s) * n - MP.num(t),
            policy)
        esc += more
        if sign < 0:
            return n, esc
        n *= 2


def derive_c_n0(p: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> DerivedCN0:
    """Re-derive n0(p): the least n0 with F(n, p) <= c(p) n for every
    n >= n0, taking c(p) from the published table.  The guarded scan
    stops at the end ``_scan_end`` proves for (c(p), 0)."""
    c = _published_c().get(p)
    if c is None:
        raise DomainError(f"no published c(p) for p={p}")
    end, esc_end = _scan_end(p, c, 0, policy)
    import numpy as np
    ns = np.arange(16, end + 1, dtype=np.int64)
    # +1 where F > c n (violation)
    signs, esc = _guarded_signs(p, ns, threshold_F_array(p, ns),
                                float(c) * ns, lambda n: MP.num(c) * n, policy)
    viol = np.nonzero(signs > 0)[0]
    last = int(ns[viol[-1]]) if viol.size else None
    return DerivedCN0(p=p, c=c, n0=16 if last is None else last + 1,
                      cap=end, last_violation=last, escalations=esc_end + esc)


class DerivedN(NamedTuple):
    p: int
    N: int
    first_failure: int
    escalations: int


def anchor_signs(p: int, n_hi: int,
                 policy: PrecisionPolicy = DEFAULT_POLICY):
    """The anchor claim F(n, p) > baseline_rank(n) over n in [16, n_hi]:
    returns ``(ns, signs, escalations)`` with sign +1 where it holds."""
    import numpy as np
    ns = np.arange(16, n_hi + 1, dtype=np.int64)
    base = 3 * ns // 8 + np.where((ns % 8 == 2) | (ns % 8 == 4), 2, 1)
    return (ns, *_guarded_signs(p, ns, threshold_F_array(p, ns),
                                base.astype(np.float64), baseline_rank,
                                policy))


def derive_N(p: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> DerivedN:
    """Re-derive N(p): the largest N with F(n, p) > baseline_rank(n) for
    all n in [16, N]; also reports the first failing n (= N + 1).  As
    baseline_rank(n) >= 3n/8 + 1/8, the claim fails at the end
    ``_scan_end`` proves for (3/8, 1/8), which f1(p) > 3/8 rules out."""
    end, escalations = _scan_end(p, Fraction(3, 8), Fraction(1, 8), policy)
    ns, signs, esc = anchor_signs(p, end, policy)
    first = int(ns[(signs <= 0).nonzero()[0][0]])
    if first == 16:
        raise DomainError(f"anchor property already fails at n = 16 for p = {p}")
    return DerivedN(p=p, N=first - 1, first_failure=first,
                    escalations=escalations + esc)


def f1_monotonicity_scan(p_max: int,
                         policy: PrecisionPolicy = DEFAULT_POLICY) -> VerificationReport:
    """Verify that f1(p) strictly increases over all primes in [3, p_max]
    and that f1(29) < 3/8 < f1(31).  Requires p_max >= 31."""
    if p_max < 31:
        raise PreconditionError(f"p_max must be >= 31, got {p_max}")
    primes = [p for p in primes_up_to(p_max) if p >= 3]
    f1 = {p: constants(p).f1 for p in primes}

    def hi_f1(p):
        return _constant_values(p, policy.escalation_digits)[0]

    escalations = 0
    checked = 0
    for a, b in zip(primes, primes[1:]):
        checked += 1
        s, esc = strict_sign(f1[b] - f1[a],
                             lambda a=a, b=b: hi_f1(b) - hi_f1(a), policy)
        escalations += esc
        if s <= 0:
            return VerificationReport(
                suite="f1-monotonicity", instances_checked=checked, passed=False,
                counterexample={"p_low": a, "p_high": b,
                                "f1_low": f1[a], "f1_high": f1[b]})
    for p, want_below in ((29, True), (31, False)):
        checked += 1
        s, esc = strict_sign(0.375 - f1[p],
                             lambda p=p: MP.num(3) / 8 - hi_f1(p), policy)
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
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> VerificationReport:
    """Find the minimal n* in [n_lo, n_hi] from which
    n/4 < F(n, p) <= sqrt(3) n / 4 holds for every n up to n_hi.

    Both comparisons are guarded by ``policy``; an exact tie on the upper
    side is irrational and so cannot occur."""
    _check_odd_prime(p)
    if not 16 <= n_lo < n_hi:
        raise DomainError(f"need 16 <= n_lo < n_hi, got [{n_lo}, {n_hi}]")
    import numpy as np
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    F = threshold_F_array(p, ns)
    above, esc_lo = _guarded_signs(p, ns, F, ns / 4.0,
                                   lambda n: MP.num(n) / 4, policy)
    below, esc_hi = _guarded_signs(p, ns, F, math.sqrt(3.0) * ns / 4.0,
                                   lambda n: MP.sqrt(3) * n / 4, policy)
    bad = np.nonzero((above < 0) | (below > 0))[0]
    if bad.size and int(ns[bad[-1]]) == n_hi:
        return VerificationReport(
            suite="envelope", instances_checked=int(ns.size), passed=False,
            counterexample={"p": p, "n": int(ns[bad[-1]]),
                            "F": float(F[bad[-1]])})
    n_star = n_lo if bad.size == 0 else int(ns[bad[-1]]) + 1
    return VerificationReport(
        suite="envelope", instances_checked=int(ns.size), passed=True,
        counterexample=None,
        payload={"p": p, "n_star": n_star, "escalations": esc_lo + esc_hi})


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
    corresponds to a fixed-point set of codimension 2w.
    """
    _check_odd_prime(p)
    if p > 29:
        raise DomainError(f"codim guarantees cover primes <= 29, got {p}")
    if not isinstance(n, int) or n < 16:
        raise DomainError(f"n must be an integer >= 16, got {n!r}")
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    F = threshold_F(p, n, digits)
    m = n // 2
    rb14 = rank_bound(p, m, Fraction(1, 4), digits).r_upper
    rb13 = rank_bound(p, m, Fraction(1, 3), digits).r_upper
    return CodimReport(
        p=p, n=n, r=r, applicable=bool(r > F), F_value=F,
        tau1_codim_cap=Fraction(n + 3, 4), tau2_codim_cap=Fraction(n + 1, 3),
        rank_bound_quarter=rb14, rank_bound_third=rb13,
        exceeds_quarter=bool(r > rb14), exceeds_third=bool(r > rb13))


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
    if not isinstance(n, int) or n < 5:
        raise DomainError(f"n must be an integer >= 5, got {n!r}")
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"r must be a nonnegative integer, got {r!r}")
    max_rank = n // 2
    base = baseline_rank(n)
    F = None
    if n >= 16 and p <= 29:
        try:
            F = threshold_F(p, n, digits)
        except PreconditionError:
            F = None
    if r > max_rank:
        cls = Classification.IMPOSSIBLE
    elif r == max_rank:
        cls = Classification.MAX_RANK_ONLY
    elif r >= base:
        cls = Classification.BASELINE
    elif F is not None and r > F:
        cls = Classification.MAIN_THEOREM
    else:
        cls = Classification.NO_CONCLUSION
    return ThresholdReport(p=p, n=n, r=r, F_value=F, baseline=base,
                           max_rank=max_rank, classification=cls)
