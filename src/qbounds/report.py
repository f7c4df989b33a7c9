"""Pass/fail records for verification suites."""

from typing import NamedTuple


class _ReportFields(NamedTuple):
    suite: str
    instances_checked: int
    passed: bool
    counterexample: dict | None
    payload: dict


class VerificationReport(_ReportFields):
    """Outcome of one oracle or scan suite.

    A failed report always carries the violating instance, fully
    serialized, in ``counterexample``; each report gets its own
    ``payload`` dict.
    """

    __slots__ = ()
    # _replace builds through _make: route it through the checks of __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, suite: str, instances_checked: int, passed: bool,
                counterexample: dict | None = None,
                payload: dict | None = None):
        if not passed and counterexample is None:
            raise ValueError("failed report must carry a counterexample")
        if payload is None:
            payload = {}
        return super().__new__(cls, suite, instances_checked, passed,
                               counterexample, payload)
