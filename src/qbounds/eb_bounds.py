"""Finite-length Elias-Bassalygo rate bounds and the injection-rank bound.

Every bound returns a per-term breakdown whose values sum to the headline
number; the term labels are a stable contract consumed by the CLI.
"""

import math
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

from .errors import (AmbiguousComparisonError, DomainError,
                     PreconditionError, check_int)
from .precision import evaluate, exceeds, strict_sign
from .qcore import _check_delta, _entropy, _johnson_ceil, _johnson_radius

# The two relative distances of the small-codimension rank caps.
_QUARTER, _THIRD = Fraction(1, 4), Fraction(1, 3)

# Miller-Rabin to the first 13 prime bases: a composite verdict is a proof,
# and a prime verdict is exact below the least strong pseudoprime to all of
# them (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003).
_PRIME_BASES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p) -> bool:
    """Exact primality test; a p >= _PRIME_BOUND (about 3.3e24) that passes
    every base is not decided, and is a DomainError."""
    if not isinstance(p, int) or p < 2:
        return False
    if p in _PRIME_BASES:
        return True
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s  # p - 1 = d 2^s with d odd
    # a base a passes when a^d = 1 or a^(d 2^r) = -1 (mod p) for an r < s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):  # x = a^(d 2^r), each by squaring the last
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _PRIME_BOUND:
        raise DomainError(f"primality is decided below {_PRIME_BOUND} only, "
                          f"got p={p}")
    return True


def _check_odd_prime(p):
    if not is_prime(p) or p < 3:
        raise DomainError(f"expected a prime >= 3, got {p!r}")


class _BoundFields(NamedTuple):
    q: int
    n: int
    d: int | None
    delta: float | Fraction | None


class BoundParams(_BoundFields):
    """One rate-bound instance: alphabet q, block length n, and exactly one
    of minimum distance d or relative distance delta.  Supplying d fixes
    delta = d/n as an exact rational."""

    __slots__ = ()
    # _replace builds through _make: route it through the checks of __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, q: int, n: int, d: int | None = None,
                delta: float | Fraction | None = None):
        check_int("q", q, 2)
        check_int("n", n, 1)
        if delta is None:
            check_int("d", d, 1, n)
        elif d is not None:
            raise DomainError("exactly one of d, delta must be supplied")
        elif isinstance(delta, bool) or not (isinstance(delta, Real)
                                             and 0 <= delta <= 1):
            raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
        return super().__new__(cls, q, n, d, delta)

    @property
    def delta_value(self):
        if self.d is not None:
            return Fraction(self.d, self.n)
        return self.delta


class BoundResult(NamedTuple):
    rate_upper: float
    e: int
    terms: tuple[tuple[str, float], ...]


class RankBoundResult(NamedTuple):
    r_upper: float
    terms: tuple[tuple[str, float], ...]


def _eb_inputs(params):
    """``(q, n, delta, e)`` of an instance in the bounds' domain."""
    q, n = params.q, params.n
    delta = params.delta_value
    _check_delta(q, delta, open_lower=True, open_upper=True)
    e = _johnson_ceil(q, n, delta) - 1
    if e < 1:
        raise PreconditionError(
            f"n > 1/J_q(delta) required (e = {e} < 1 at n = {n})")
    return q, n, delta, e


def eb_rate_bound(params: BoundParams, digits=None) -> BoundResult:
    """Finite-length Elias-Bassalygo bound on the rate of any q-ary
    length-n code with minimum relative distance delta.

    With e = ceil(n*J_q(delta)) - 1, decided exactly, so e/n < J_q(delta):

        R <= 1 - H_q(e/n)
             + (1/2n) log_q(2 pi (e/n)(1 - e/n) n)
             + (1/n) log_q(q n^2 delta)
             + (1/(n ln q)) (1/(12n) + 1/(12e+1) + 1/(12(n-e)+1))
    """
    return evaluate(digits, _eb_rate_bound, *_eb_inputs(params))


def _eb_rate_bound(m, q, n, delta, e):
    lq = m.log(q)
    en = m.num(e) / n
    terms = (
        ("one_minus_entropy", 1 - _entropy(m, q, en)),
        ("half_log_ball_geometry",
         m.log(2 * m.pi * en * (1 - en) * n) / (2 * n * lq)),
        ("log_qn2delta", m.log(q * n * n * m.num(delta)) / (n * lq)),
        ("stirling_residue", (m.one / (12 * n) + m.one / (12 * e + 1)
                              + m.one / (12 * (n - e) + 1)) / (n * lq)),
    )
    return BoundResult(rate_upper=sum(v for _, v in terms), e=e, terms=terms)


def _rate_check(q, n, d, size, digits=None):
    """``(rate, bound, holds)`` for a q-ary length-n code of ``size`` words
    and minimum distance d: rate = log_q(size)/n in double precision,
    bound = eb_rate_bound at ``digits``, and holds = rate < bound, decided
    by ``exceeds`` from that bound."""
    inputs = _eb_inputs(BoundParams(q=q, n=n, d=d))
    bound = evaluate(digits, _eb_rate_bound, *inputs).rate_upper
    rate = math.log(size) / (n * math.log(q))
    return rate, bound, exceeds(bound, rate, lambda m: _eb_rate_bound(
        m, *inputs).rate_upper - m.log(size) / (n * m.log(q)), digits)


def _vacuous(form, params, value, digits=None):
    """Whether the ``form`` bound ``value`` (at ``digits``) rules out no code:
    a rate >= 1 or a rank >= n, by ``exceeds``; None if that cannot decide."""
    q, n, delta, e = _eb_inputs(params)
    cap, f, args = {
        "finite": (1, _eb_rate_bound, (q, n, delta, e)),
        "continuous": (1, _eb_rate_bound_continuous, (q, n, delta, e)),
        "rank": (n, _rank_bound, (q, n, delta))}[form]
    try:
        return not exceeds(cap, value, lambda m: cap - f(m, *args)[0], digits)
    except (AmbiguousComparisonError, DomainError):  # at the cap, or overflow
        return None


def eb_rate_bound_continuous(params: BoundParams, digits=None) -> BoundResult:
    """Continuous relaxation of the finite-length bound (no ceilings):

        R <= 1 - H_q(J) + (1/n) log_q((q-1)(1-J)/J) + (1/2n) log_q(2 pi n J)
             + (1/n) log_q(q n^2 delta) + 1/(12 n^2 ln q) + 2/(13 n ln q)
             + (1/(2 n^2 ln q)) (1/(J - 1/n) + 1/(1 - J)),   J = J_q(delta).

    Always >= eb_rate_bound on the same parameters.
    """
    return evaluate(digits, _eb_rate_bound_continuous, *_eb_inputs(params))


def _eb_rate_bound_continuous(m, q, n, delta, e):
    delta = m.num(delta)
    J = _johnson_radius(m, q, delta)
    lq = m.log(q)
    terms = (
        ("one_minus_entropy_at_J", 1 - _entropy(m, q, J)),
        ("taylor_first_order", m.log((q - 1) * (1 - J) / J) / (n * lq)),
        ("half_log_2pinJ", m.log(2 * m.pi * n * J) / (2 * n * lq)),
        ("log_qn2delta", m.log(q * n * n * delta) / (n * lq)),
        ("residues", 1 / (12 * n * n * lq) + 2 / (13 * n * lq)
         + (1 / (J - m.one / n) + 1 / (1 - J)) / (2 * n * n * lq)),
    )
    return BoundResult(rate_upper=sum(v for _, v in terms), e=e, terms=terms)


def rank_bound(p: int, n: int, delta, digits=None) -> RankBoundResult:
    """Rank cap r(delta) for injections Z_p^r -> Z_p^n whose nonzero images
    all have Hamming weight >= delta*n:

        r <= (1 - H_p(J)) n + 2.5 log_p n + log_p((p-1)(1-J)/J)
             + 0.5 log_p(2 pi J) + log_p(p delta) + 2/(13 ln p)
             + (1/n)(1/(12 ln p) + 1/(2 ln p (1-J)))
             + 1/((2 ln p) J n - 2 ln p),            J = J_p(delta).
    """
    if not is_prime(p):
        raise DomainError(f"rank_bound requires a prime alphabet, got p={p!r}")
    check_int("n", n, 1)
    _check_delta(p, delta, open_lower=True, open_upper=True)
    if _johnson_ceil(p, n, delta) <= 1:
        raise PreconditionError(
            f"n > 1/J_p(delta) required (p={p}, n={n}, delta={delta})")
    return evaluate(digits, _rank_bound, p, n, delta)


def _rank_bound(m, p, n, delta):
    delta = m.num(delta)
    J = _johnson_radius(m, p, delta)
    lp = m.log(p)
    terms = (
        ("dominant_linear", (1 - _entropy(m, p, J)) * n),
        ("log_p_n", 2.5 * m.log(n) / lp),
        ("entropy_slope_at_J", m.log((p - 1) * (1 - J) / J) / lp),
        ("half_log_2piJ", m.log(2 * m.pi * J) / (2 * lp)),
        ("log_p_pdelta", m.log(p * delta) / lp),
        ("two_over_13lnp", 2 / (13 * lp)),
        ("inverse_n", (1 / (12 * lp) + 1 / (2 * lp * (1 - J))) / n),
        ("johnson_tail", 1 / (2 * lp * J * n - 2 * lp)),
    )
    return RankBoundResult(r_upper=sum(v for _, v in terms), terms=terms)


def verify_rank_monotonicity(p: int, n: int) -> bool:
    """True iff rank_bound(p, n, 1/3) < rank_bound(p, n, 1/4).

    Holds for every prime p >= 3 and n >= 16; n below 16 is rejected
    because the underlying derivative estimate needs it.  Both bounds are
    in their domain there (16 J_p(1/4) > 1), and the difference is decided
    by ``strict_sign``.
    """
    _check_odd_prime(p)
    check_int("n", n, 1)
    if n < 16:
        raise PreconditionError(f"monotonicity statement requires n >= 16, got {n!r}")
    sign, _ = strict_sign(lambda m: _rank_bound(m, p, n, _QUARTER).r_upper
                          - _rank_bound(m, p, n, _THIRD).r_upper)
    return sign > 0
