"""Exception hierarchy for the qbounds package."""


class QBoundsError(Exception):
    """Base class for all qbounds errors."""


class DomainError(QBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(QBoundsError, ValueError):
    """Arguments are in-domain but violate a stated precondition of a bound."""


class ResourceBudgetError(QBoundsError, RuntimeError):
    """An exhaustive computation exceeded its size, work or wall-clock budget."""


class AmbiguousComparisonError(QBoundsError, RuntimeError):
    """A strict comparison stayed below the decision margin even after
    escalating to high precision."""


def check_int(name, value, lo, hi=None):
    """Raise DomainError unless ``value`` is an int, exactly (a bool or any
    other subclass is not), with lo <= value, and value <= hi when ``hi``
    is given."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        rule = f">= {lo}" if hi is None else f"with {lo} <= {name} <= {hi}"
        raise DomainError(f"{name} must be an integer {rule}, got {value!r}")
