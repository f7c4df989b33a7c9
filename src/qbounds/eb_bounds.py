"""Finite-length Elias-Bassalygo rate bounds and the injection-rank bound.

Every bound returns a per-term breakdown whose values sum to the headline
number; the term labels are a stable contract consumed by the CLI.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PreconditionError
from .precision import evaluate
from .qcore import _check_delta, _entropy, _johnson_ceil, _johnson_radius

__all__ = [
    "BoundParams", "BoundResult", "RankBoundResult",
    "eb_rate_bound", "eb_rate_bound_continuous",
    "rank_bound", "verify_rank_monotonicity", "is_prime",
]


def is_prime(p) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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
        if not isinstance(q, int) or q < 2:
            raise DomainError(f"q must be an integer >= 2, got {q!r}")
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"n must be an integer >= 1, got {n!r}")
        if (d is None) == (delta is None):
            raise DomainError("exactly one of d, delta must be supplied")
        if d is not None and not 1 <= d <= n:
            raise DomainError(f"d must satisfy 1 <= d <= n, got d={d!r}")
        if delta is not None and not 0 <= delta <= 1:
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
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
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
    because the underlying derivative estimate needs it.
    """
    if not is_prime(p) or p < 3:
        raise DomainError(f"p must be a prime >= 3, got {p!r}")
    if not isinstance(n, int) or n < 16:
        raise PreconditionError(f"monotonicity statement requires n >= 16, got {n!r}")
    third = rank_bound(p, n, Fraction(1, 3)).r_upper
    quarter = rank_bound(p, n, Fraction(1, 4)).r_upper
    return third < quarter
