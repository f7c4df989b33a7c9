"""Numeric contexts, the working precision and guarded strict comparisons.

Each real-valued formula is written once over a numeric context ``m``
(``log``, ``sqrt``, ``pi``, ``ceil``, ``num`` to convert an argument,
``one``, and ``digits``, the context's precision): ``FLOAT`` is double
precision (``digits`` None) and ``MP`` is mpmath at the working precision;
``geometry`` builds a numpy context over arrays.  Every function takes the
one precision knob ``digits`` (None for double precision).  A strict
comparison is written once too, as a difference over the context:
``strict_sign`` decides it in double precision and re-decides it at
``escalation_digits(digits)`` whenever the double-precision difference is
within ``DECISION_MARGIN`` of zero.

This module is the single entry point to mpmath, and it imports mpmath on
first use: ``evaluate`` with ``digits``, the escalation branch of
``strict_sign`` and the first use of ``MP``.  Work in double precision
never loads it.
"""

import math
from numbers import Rational
from types import SimpleNamespace
from typing import Callable

from .errors import AmbiguousComparisonError, DomainError, check_int


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

    @property
    def digits(self):
        """The working precision in decimal digits."""
        import mpmath
        return mpmath.mp.dps


FLOAT = SimpleNamespace(log=math.log, sqrt=math.sqrt, pi=math.pi,
                        ceil=math.ceil, num=float, one=1.0, digits=None)
MP = _MPContext()


def evaluate(digits, formula, *args):
    """``formula(m, *args)`` in double precision when ``digits`` is None,
    else at ``digits`` decimal digits (a positive integer) with mpmath.  An
    argument or value out of a double's range is a DomainError."""
    if digits is None:
        try:
            return formula(FLOAT, *args)
        except OverflowError as exc:
            raise DomainError(f"{exc} in double precision; retry with "
                              f"digits (--digits)") from None
    check_int("digits", digits, 1)
    import mpmath
    with mpmath.workdps(digits):
        return formula(MP, *args)


# Decimal digits of a double: escalating to fewer would gain nothing.
DOUBLE_DIGITS = 17
# A strict comparison closer than this in double precision is escalated.
DECISION_MARGIN = 1e-9
# A high-precision |diff| below this is undecided, whatever the margin.
AMBIGUITY_FLOOR = 1e-18


def escalation_digits(digits=None) -> int:
    """Digits at which ``strict_sign`` re-decides a close comparison: 50 by
    default, else ``digits`` raised to at least ``DOUBLE_DIGITS``."""
    if digits is None:
        return 50
    check_int("digits", digits, 1)
    return max(digits, DOUBLE_DIGITS)


def strict_sign(diff: Callable, digits=None) -> tuple[int, bool]:
    """Sign of the difference ``diff(m)``, a formula over the numeric
    context ``m``, escalating to high precision near zero.

    ``diff(FLOAT)`` decides when |diff| >= DECISION_MARGIN (a value out of
    a double's range is a DomainError, as in ``evaluate``); otherwise
    ``diff(MP)`` is re-evaluated at ``escalation_digits(digits)`` digits.
    Returns ``(sign, escalated)`` with sign in {-1, +1}.  Raises
    AmbiguousComparisonError if the high-precision difference is still
    below ``AMBIGUITY_FLOOR``.
    """
    hi = escalation_digits(digits)
    d = evaluate(None, diff)
    if abs(d) >= DECISION_MARGIN:
        return (1 if d > 0 else -1), False
    import mpmath
    with mpmath.workdps(hi):
        hd = diff(MP)
        if abs(hd) < mpmath.mpf(AMBIGUITY_FLOOR):
            raise AmbiguousComparisonError(
                f"comparison unresolved at {hi} digits "
                f"(|diff| = {mpmath.nstr(abs(hd), 5)})")
        return (1 if hd > 0 else -1), True
