"""Pass/fail records for verification suites.

Every suite that loops over instances builds its report through one
runner, ``first_failure(suite, checks, payload)``: ``checks`` yields one
item per instance, None if the instance holds or its counterexample dict
if it fails.  The runner stops at the first counterexample, and
``instances_checked`` counts the items yielded up to and including it.
The checks fill ``payload`` in place as they run, so a failed report
carries the payload gathered so far.
"""

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


def first_failure(suite: str, checks, payload: dict | None = None
                  ) -> VerificationReport:
    """The report of ``checks``, stopped at its first counterexample."""
    checked, counterexample = 0, None
    for checked, counterexample in enumerate(checks, 1):
        if counterexample is not None:
            break
    return VerificationReport(suite, checked, counterexample is None,
                              counterexample, payload)
