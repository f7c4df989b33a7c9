"""Numeric contexts, the working-precision policy and guarded strict
comparisons.

Each real-valued formula is written once over a numeric context ``m``
(``log``, ``sqrt``, ``pi``, ``ceil``, ``num`` to convert an argument,
``one``): ``FLOAT`` is double precision and ``MP`` is mpmath at the working
precision; ``geometry.threshold_F_array`` builds a numpy context over
arrays for its one formula.  Scans that decide strict inequalities
between nearly-equal quantities escalate individual comparisons to software
high precision whenever the double-precision margin falls below
``decision_margin``.

This module is the single entry point to mpmath, and it imports mpmath on
first use: ``evaluate`` with ``digits``, the escalation branch of
``strict_sign`` and the first use of ``MP``.  Work in double precision
never loads it.
"""

import math
from numbers import Rational
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import AmbiguousComparisonError, DomainError


def _mpf(x):
    """Lossless conversion to mpf at the current working precision."""
    import mpmath
    if isinstance(x, Rational) and not isinstance(x, int):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


class _MPContext(SimpleNamespace):
    """The mpmath context; it imports mpmath and sets its members the first
    time one is looked up."""

    def __getattr__(self, name):
        import mpmath
        vars(self).update(log=mpmath.log, sqrt=mpmath.sqrt, pi=mpmath.pi,
                          ceil=mpmath.ceil, num=_mpf, one=mpmath.mpf(1))
        return object.__getattribute__(self, name)


FLOAT = SimpleNamespace(log=math.log, sqrt=math.sqrt, pi=math.pi,
                        ceil=math.ceil, num=float, one=1.0)
MP = _MPContext()


def check_digits(digits, name="digits"):
    """Reject a precision that is not a positive integer."""
    if isinstance(digits, bool) or not isinstance(digits, int) or digits < 1:
        raise DomainError(f"{name} must be a positive integer, got {digits!r}")


def evaluate(digits, formula, *args):
    """``formula(m, *args)`` in double precision when ``digits`` is None,
    else at ``digits`` decimal digits (a positive integer) with mpmath."""
    if digits is None:
        return formula(FLOAT, *args)
    check_digits(digits)
    import mpmath
    with mpmath.workdps(digits):
        return formula(MP, *args)


# Decimal digits of a double: escalating to fewer would gain nothing.
DOUBLE_DIGITS = 17


class _PolicyFields(NamedTuple):
    escalation_digits: int
    decision_margin: float


class PrecisionPolicy(_PolicyFields):
    """Precision contract for real-valued evaluation.

    escalation_digits
        Digits used when a comparison is re-run in software precision
        (at least ``DOUBLE_DIGITS``).
    decision_margin
        Minimum |difference| at which a strict comparison is accepted
        without escalation.
    """

    __slots__ = ()
    # _replace builds through _make: route it through the checks of __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, escalation_digits: int = 50,
                decision_margin: float = 1e-9):
        if escalation_digits < DOUBLE_DIGITS:
            raise DomainError(f"escalation_digits must be >= {DOUBLE_DIGITS}")
        if not decision_margin > 0:
            raise DomainError("decision_margin must be positive")
        return super().__new__(cls, escalation_digits, decision_margin)


DEFAULT_POLICY = PrecisionPolicy()


def strict_sign(diff: float,
                hires: Callable[[], "mpmath.mpf"],
                policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple[int, bool]:
    """Sign of a difference, escalating to high precision near zero.

    ``hires`` recomputes the difference at ``policy.escalation_digits``
    digits; it is only invoked when |diff| < decision_margin.  Returns
    ``(sign, escalated)`` with sign in {-1, +1}.  Raises
    AmbiguousComparisonError if the high-precision difference is still
    inside the margin.
    """
    if abs(diff) >= policy.decision_margin:
        return (1 if diff > 0 else -1), False
    import mpmath
    with mpmath.workdps(policy.escalation_digits):
        hd = hires()
        if abs(hd) < mpmath.mpf(policy.decision_margin) ** 2:
            raise AmbiguousComparisonError(
                f"comparison unresolved at {policy.escalation_digits} digits "
                f"(|diff| = {mpmath.nstr(abs(hd), 5)})")
        return (1 if hd > 0 else -1), True
