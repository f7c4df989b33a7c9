"""The library's result and parameter records: their checks, their
immutability, and what their equality and repr show."""

from fractions import Fraction

import pytest

from qbounds import (BoundParams, BoundResult, Classification, Code,
                     CodimReport, DerivedCN0, DerivedN, DomainError,
                     PrimeConstants, RankBoundResult, ThresholdReport,
                     VerificationReport, make_code)


class TestVerificationReport:
    def test_failed_report_needs_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("suite", 1, False)
        VerificationReport("suite", 1, False, counterexample={"n": 1})

    def test_payload_not_shared(self):
        a = VerificationReport("a", 1, True)
        b = VerificationReport("b", 1, True)
        a.payload["x"] = 1
        assert b.payload == {}


_RECORDS = [
    BoundParams(q=3, n=10, d=3),
    BoundResult(rate_upper=0.5, e=1, terms=()),
    RankBoundResult(r_upper=1.0, terms=()),
    PrimeConstants(3, 0.1, 0.2, 0.3, 0.4, 0.5),
    DerivedCN0(p=3, c=Fraction(1, 3), n0=16, cap=32, last_violation=None,
               escalations=0),
    DerivedN(p=3, N=100, first_failure=101, escalations=0),
    CodimReport(p=3, n=16, r=7, applicable=True, F_value=6.0,
                tau1_codim_cap=Fraction(19, 4), tau2_codim_cap=Fraction(17, 3),
                rank_bound_quarter=8.0, rank_bound_third=7.0,
                exceeds_quarter=False, exceeds_third=False),
    ThresholdReport(p=3, n=16, r=7, F_value=6.0, baseline=7, max_rank=8,
                    classification=Classification.BASELINE),
    VerificationReport("suite", 1, True),
    make_code(2, 3, [(0, 0, 0), (1, 1, 1)]),
]


@pytest.mark.parametrize("record", _RECORDS,
                         ids=[type(r).__name__ for r in _RECORDS])
def test_fields_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_bound_params_repr():
    assert repr(BoundParams(q=3, n=10, d=3)) == \
        "BoundParams(q=3, n=10, d=3, delta=None)"


def test_code_equality_ignores_cached_distance():
    a = make_code(2, 3, [(0, 0, 0), (1, 1, 1)])
    b = make_code(2, 3, [(1, 1, 1), (0, 0, 0)])
    assert a.min_distance() == 3
    assert b.cached_min_distance is None
    assert a == b
    assert repr(a) == "Code(q=2, n=3, words=((0, 0, 0), (1, 1, 1)))"


@pytest.mark.parametrize("record, change, error", [
    (BoundParams(q=3, n=10, d=3), {"q": 1}, DomainError),
    (BoundParams(q=3, n=10, d=3), {"d": 11}, DomainError),
    (VerificationReport("suite", 1, True), {"passed": False}, ValueError),
], ids=["bound-q", "bound-d", "report-no-counterexample"])
def test_replace_runs_the_checks(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_replace_keeps_valid_records():
    assert BoundParams(q=3, n=10, d=3)._replace(n=20) == \
        BoundParams(q=3, n=20, d=3)
