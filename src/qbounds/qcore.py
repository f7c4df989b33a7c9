"""Special functions and combinatorial estimates for q-ary codes.

Exact integer combinatorics (Hamming-ball volumes, binomials) never touch
floating point; real-valued functions evaluate in doubles by default and in
``digits``-digit software precision when asked.
"""

import math
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, ResourceBudgetError, check_int
from .precision import evaluate

# The largest Hamming-ball volume computed, in bits (about 19,700 digits);
# it bounds the work of the exact sum, as no term exceeds the volume.
BALL_VOLUME_BITS = 1 << 16


def _check_delta(q, delta, *, open_lower=False, open_upper=False):
    """Require delta in [0, (q-1)/q], with either end excluded on request;
    a rational delta = u/v is decided exactly, as u q against (q-1) v, any
    other against the correctly rounded double (q-1)/q."""
    if isinstance(delta, Rational):
        x, top = delta.numerator * q, (q - 1) * delta.denominator
    else:
        x, top = delta, (q - 1) / q
    if not ((0 < x if open_lower else 0 <= x)
            and (x < top if open_upper else x <= top)):
        raise DomainError(
            f"relative distance must satisfy 0 {'<' if open_lower else '<='} "
            f"delta {'<' if open_upper else '<='} (q-1)/q, got {delta}")


def _entropy(m, q, x):
    x = m.num(x)
    if x == 0:
        return m.num(0)
    if x == 1:
        return m.log(q - 1) / m.log(q)
    return (x * m.log(q - 1) - x * m.log(x) - (1 - x) * m.log(1 - x)) / m.log(q)


def entropy(q, x, digits=None):
    """q-ary entropy H_q(x) = x log_q(q-1) - x log_q x - (1-x) log_q(1-x).

    Uses the 0*log 0 = 0 convention at the endpoints.  Domain: 0 <= x <= 1.
    """
    check_int("q", q, 2)
    if not 0 <= x <= 1:
        raise DomainError(f"entropy argument must be in [0, 1], got {x}")
    return evaluate(digits, _entropy, q, x)


def _entropy_d1(m, q, x):
    x = m.num(x)
    return m.log((q - 1) * (1 - x) / x) / m.log(q)


def entropy_d1(q, x, digits=None):
    """First derivative H_q'(x) = log_q((q-1)(1-x)/x), for 0 < x < 1."""
    check_int("q", q, 2)
    if not 0 < x < 1:
        raise DomainError("entropy_d1 requires 0 < x < 1 (unbounded at endpoints)")
    return evaluate(digits, _entropy_d1, q, x)


def _entropy_d2(m, q, x):
    x = m.num(x)
    return -(1 / x + 1 / (1 - x)) / m.log(q)


def entropy_d2(q, x, digits=None):
    """Second derivative H_q''(x) = -(1/ln q)(1/x + 1/(1-x)); always < 0."""
    check_int("q", q, 2)
    if not 0 < x < 1:
        raise DomainError("entropy_d2 requires 0 < x < 1")
    return evaluate(digits, _entropy_d2, q, x)


def _johnson_radicand(m, q, delta):
    """1 - q delta/(q-1) >= 0, the radicand of J_q and J_q'."""
    rad = 1 - q * m.num(delta) / (q - 1)
    # below 1e-3 a float's rounding costs > 1e-13 in J': redo it exactly
    if isinstance(rad, float) and rad < 1e-3:
        rad = float(1 - q * Fraction(delta) / (q - 1))
    return max(rad, 0)


def _johnson_radius(m, q, delta):
    # equal to (1 - 1/q)(1 - s) with s = sqrt(radicand), without its
    # cancellation as delta -> 0
    return m.num(delta) / (1 + m.sqrt(_johnson_radicand(m, q, delta)))


def johnson_radius(q, delta, digits=None):
    """Johnson radius J_q(delta) = (1 - 1/q)(1 - sqrt(1 - q*delta/(q-1))),
    evaluated as delta / (1 + sqrt(1 - q*delta/(q-1)))."""
    check_int("q", q, 2)
    _check_delta(q, delta)
    return evaluate(digits, _johnson_radius, q, delta)


def _johnson_ceil(q, n, delta):
    """Exact ceil(n J_q(delta)) for a rational (or double) delta = u/v in
    [0, (q-1)/q]: n J = (t - sqrt(t n ((q-1)v - qu))) / (qv), t = n(q-1)v."""
    u, v = delta.as_integer_ratio()
    t = n * (q - 1) * v
    return -((math.isqrt(t * n * (v * (q - 1) - u * q)) - t) // (q * v))


def _johnson_radius_d1(m, q, delta):
    return 0.5 / m.sqrt(_johnson_radicand(m, q, delta))


def johnson_radius_d1(q, delta, digits=None):
    """Derivative J_q'(delta) = (1/2)(1 - q*delta/(q-1))^(-1/2); >= 1/2."""
    check_int("q", q, 2)
    _check_delta(q, delta, open_upper=True)
    return evaluate(digits, _johnson_radius_d1, q, delta)


def hamming_ball_volume(q, n, e):
    """Exact number of words within Hamming distance e of a fixed word:
    sum_{i=0}^{e} C(n, i) (q-1)^i, in arbitrary-size integers.  It sums the
    shorter side of n/2: for 2e > n it is q^n minus the terms with i > e,
    when q^n is within the budget.  A volume that may exceed
    BALL_VOLUME_BITS bits is a ResourceBudgetError."""
    check_int("q", q, 2)
    check_int("n", n, 0)
    check_int("e", e, 0, n)
    # the volume is at most q^n and at most (e+1) (n(q-1))^e
    space_bits = n * (q - 1).bit_length() + 1
    bits = min(space_bits,
               e * (n * (q - 1)).bit_length() + (e + 1).bit_length())
    if bits > BALL_VOLUME_BITS:
        raise ResourceBudgetError(
            f"ball volume V_{q}({n}, {e}) may need {bits} bits, over the "
            f"budget of {BALL_VOLUME_BITS}")
    if 2 * e <= n or space_bits > BALL_VOLUME_BITS:
        total, term = 0, 1  # term = C(n, i) (q-1)^i
        for i in range(e + 1):
            total += term
            term = term * (n - i) * (q - 1) // (i + 1)
        return total
    total, term = q ** n, (q - 1) ** n  # term = C(n, i) (q-1)^i, i from n
    for i in range(n, e, -1):
        total -= term
        term = term * i // ((n - i + 1) * (q - 1))
    return total


def _stirling_bounds(m, k):
    s = k * m.log(k) - k + m.log(2 * m.pi * k) / 2
    return s + m.one / (12 * k + 1), s + m.one / (12 * k)


def stirling_bounds(k, digits=None):
    """Two-sided Robbins bracket for ln k!, k >= 1.

    ln k! = k ln k - k + (1/2) ln(2 pi k) + theta_k with
    1/(12k+1) < theta_k < 1/(12k), so the returned (lower, upper) pair
    always straddles the exact value, and ln C(n, e), 1 <= e < n, lies in
    [lower(n) - upper(e) - upper(n-e), upper(n) - lower(e) - lower(n-e)].
    """
    check_int("k", k, 1)
    return evaluate(digits, _stirling_bounds, k)

