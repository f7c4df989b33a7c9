"""Exception hierarchy for the qbounds package."""


class QBoundsError(Exception):
    """Base class for all qbounds errors."""


class DomainError(QBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(QBoundsError, ValueError):
    """Arguments are in-domain but violate a stated precondition of a bound."""


class ResourceBudgetError(QBoundsError, RuntimeError):
    """An exhaustive computation exceeded its size or wall-clock budget."""


class AmbiguousComparisonError(QBoundsError, RuntimeError):
    """A strict comparison stayed below the decision margin even after
    escalating to high precision."""
