"""The first-counterexample runner and the suites that build their reports
through it: each suite, forced to fail at its k-th instance, stops there,
counts k instances and reports the counterexample with the payload
gathered so far."""

import itertools

import pytest

from qbounds import (BoundParams, DomainError, PreconditionError,
                     VerificationReport, eb_soundness_sweep,
                     f1_monotonicity_scan, johnson_suite, parse_code,
                     pigeonhole_suite, threshold_F)
from qbounds import eb_bounds, geometry, oracle, qcore
from qbounds.eb_bounds import _eb_inputs
from qbounds.report import first_failure
from qbounds.suites import (verify_envelope, verify_monotonicity,
                            verify_stirling)


def _on_call(k, fn, forced):
    """``fn`` with its k-th call answered by ``forced(*args)`` instead."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        if next(calls) == k:
            return forced(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapped


class TestFirstFailure:
    def test_no_checks_pass_with_none_checked(self):
        rep = first_failure("empty", iter(()))
        assert rep == VerificationReport("empty", 0, True, None, {})

    def test_stops_at_the_first_counterexample(self):
        drawn = []

        def checks():
            for i in range(1, 6):
                drawn.append(i)
                yield {"i": i} if i in (3, 5) else None

        rep = first_failure("s", checks(), {"seen": 1})
        assert rep == VerificationReport("s", 3, False, {"i": 3}, {"seen": 1})
        assert drawn == [1, 2, 3]

    def test_all_holding_checks_are_counted(self):
        rep = first_failure("s", [None] * 4)
        assert rep.passed and rep.instances_checked == 4

    def test_the_checks_fill_the_callers_payload(self):
        payload = {"n": 0}

        def checks():
            for _ in range(3):
                payload["n"] += 1
                yield None

        rep = first_failure("s", checks(), payload)
        assert rep.payload is payload and payload == {"n": 3}

    @pytest.mark.parametrize("checks", [[], [{"x": 1}]],
                             ids=["passed", "failed"])
    def test_payload_not_shared(self, checks):
        a = first_failure("a", checks)
        b = first_failure("b", checks)
        assert a.payload is not b.payload
        a.payload["x"] = 1
        assert b.payload == {}


class TestForcedFailure:
    """Each suite fails at the k-th instance of its own draw order."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_stirling(self, monkeypatch, k):
        def forced(k_arg, digits=None):
            lo, hi = bounds(k_arg, digits=digits)
            return hi, hi  # ln k! < hi, so lo < ln k! fails

        bounds = qcore.stirling_bounds
        monkeypatch.setattr(qcore, "stirling_bounds",
                            _on_call(k, bounds, forced))
        rep = verify_stirling()
        assert (rep.passed, rep.instances_checked) == (False, k)
        assert rep.counterexample["k"] == k
        assert rep.counterexample["lower"] == rep.counterexample["upper"]
        assert rep.payload == {}

    def test_monotonicity(self, monkeypatch):
        monkeypatch.setattr(
            eb_bounds, "verify_rank_monotonicity",
            _on_call(3, eb_bounds.verify_rank_monotonicity,
                     lambda p, n: False))
        rep = verify_monotonicity()
        assert (rep.passed, rep.instances_checked) == (False, 3)
        assert rep.counterexample == {"p": 3, "n": 18}
        assert rep.payload == {}

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_envelope(self, monkeypatch, k):
        # the k-th prime's check fails at n_hi; each prime decides the
        # 99,985 values of n in [16, 10^5]
        def forced(p, n_lo, n_hi, digits=None):
            return VerificationReport(
                "envelope", n_hi - n_lo + 1, False,
                {"p": p, "n": n_hi, "F": threshold_F(p, n_hi)})

        monkeypatch.setattr(geometry, "envelope_check",
                            _on_call(k, geometry.envelope_check, forced))
        rep = verify_envelope()
        p = geometry.SUPPORTED_PRIMES[k - 1]
        assert rep.passed is False
        assert rep.counterexample == {"p": p, "n": 10 ** 5,
                                      "F": threshold_F(p, 10 ** 5)}
        assert rep.instances_checked == k * 99_985

    @pytest.mark.parametrize("k, counterexample", [
        (3, {"p_low": 7, "p_high": 11}),  # f1(7) < f1(11) fails
        (25, {"p": 29, "three_eighths": 0.375}),  # f1(29) < 3/8 fails
        (26, {"p": 31, "three_eighths": 0.375})])  # 3/8 < f1(31) fails
    def test_f1(self, monkeypatch, k, counterexample):
        # every decision escalates once, and the k-th flips its sign
        real = f1_monotonicity_scan(101)
        sign = geometry.strict_sign
        monkeypatch.setattr(geometry, "strict_sign", _on_call(
            k, lambda diff, digits: (sign(diff, digits)[0], 1),
            lambda diff, digits: (-sign(diff, digits)[0], 1)))
        rep = f1_monotonicity_scan(101)
        assert (rep.passed, rep.instances_checked) == (False, k)
        assert counterexample.items() <= rep.counterexample.items()
        assert rep.payload == {**real.payload, "escalations": k}

    def test_pigeonhole(self, monkeypatch):
        degenerate = []
        witness = oracle.pigeonhole_witness

        def counted(code, e):
            degenerate.append(e in (0, code.n))
            return witness(code, e)

        def forced(code, e):
            counted(code, e)
            return (0,) * code.n, 0  # below the averaging bound

        monkeypatch.setattr(oracle, "pigeonhole_witness",
                            _on_call(3, counted, forced))
        rep = pigeonhole_suite(trials=10, seed=3)
        assert (rep.passed, rep.instances_checked) == (False, 3)
        assert rep.counterexample["count"] == 0
        assert parse_code(rep.counterexample["code"]).size > 0
        assert rep.payload == {"degenerate_radius": sum(degenerate)}
        assert len(degenerate) == 3 and sum(degenerate) > 0

    def test_johnson(self, monkeypatch):
        degenerate = []
        check = oracle.johnson_ball_check

        def counted(code, e):
            degenerate.append(e == 0)
            return check(code, e)

        def forced(code, e):
            counted(code, e)
            return VerificationReport("johnson-ball", 1, False, {"e": e})

        monkeypatch.setattr(oracle, "johnson_ball_check",
                            _on_call(3, counted, forced))
        rep = johnson_suite(trials=10, seed=0)
        assert (rep.passed, rep.instances_checked) == (False, 3)
        assert rep.counterexample == {"e": 0}
        assert rep.payload == {"degenerate_radius": sum(degenerate)}
        assert degenerate == [True] * 3

    def test_eb_soundness(self, monkeypatch):
        def holds(n, d):
            try:
                _eb_inputs(BoundParams(q=2, n=n, d=d))
            except (DomainError, PreconditionError):
                return False
            return True

        grid = [(n, d) for n in range(2, 8) for d in range(2, n + 1)]
        checked = [i for i, nd in enumerate(grid) if holds(*nd)][:3]
        third = checked[-1]
        n, d = grid[third]
        monkeypatch.setattr(oracle, "_rate_check", _on_call(
            3, eb_bounds._rate_check,
            lambda q, n, d, size: (1.0, 0.5, False)))
        rep = eb_soundness_sweep(q_set=(2,), n_max=7)
        assert (rep.passed, rep.instances_checked) == (False, 3)
        assert rep.counterexample == {
            "q": 2, "n": n, "d": d, "A": oracle.max_code_size(2, n, d)[0],
            "rate": 1.0, "bound": 0.5}
        assert rep.payload == {
            "skipped_precondition": sum(not holds(*nd)
                                        for nd in grid[:third]),
            "skipped_resource": 0, "total_instances": 3,
            "solved": [[2, *grid[i], oracle.max_code_size(2, *grid[i])[0]]
                       for i in checked]}
        assert rep.payload["skipped_precondition"] > 0
