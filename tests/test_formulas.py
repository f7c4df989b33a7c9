"""Property tests for the single-body formulas: each real-valued function
is written once over a numeric context, so its float64 and 50-digit
evaluations must agree, and the threshold over an array must reproduce the
scalar one bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbounds import (BoundParams, BoundResult, PreconditionError,
                     PrimeConstants, RankBoundResult, constants,
                     eb_rate_bound, eb_rate_bound_continuous, entropy,
                     entropy_d1, entropy_d2, johnson_radius,
                     johnson_radius_d1, rank_bound, stirling_bounds,
                     threshold_F, threshold_F_array)
from qbounds.geometry import SUPPORTED_PRIMES, primes_up_to

Q = st.integers(2, 11)
UNIT_OPEN = st.floats(1e-6, 1 - 1e-6)


@st.composite
def _delta_args(draw, alphabet=Q, lo=0.0, hi=1.0, open_upper=False):
    """(q, delta) with delta in [lo, hi] times the top (q-1)/q, below the
    top itself if ``open_upper``."""
    q = draw(alphabet)
    delta = draw(st.floats(lo, hi)) * (q - 1) / q
    assume(not open_upper or delta < (q - 1) / q)
    return q, delta


@st.composite
def _eb_args(draw, min_nJ=0.0):
    """An instance given by d or by delta, inside the bounds' domain
    0 < delta < (q-1)/q, with n J_q(delta) >= ``min_nJ``."""
    q, n = draw(Q), draw(st.integers(2, 10 ** 5))
    if draw(st.booleans()):
        top = (n * (q - 1) - 1) // q  # the largest d with d/n < (q-1)/q
        assume(top >= 1)
        params = BoundParams(q=q, n=n, d=draw(st.integers(1, top)))
    else:
        _, delta = draw(_delta_args(st.just(q), 0.01, 1.0, open_upper=True))
        params = BoundParams(q=q, n=n, delta=delta)
    assume(n * johnson_radius(q, float(params.delta_value)) >= min_nJ)
    return (params,)


@st.composite
def _rank_args(draw):
    p, delta = draw(_delta_args(st.sampled_from(primes_up_to(29)), 0.05, 0.9))
    return p, draw(st.integers(16, 10 ** 5)), delta


# Argument ranges keep clear of where float64 is ill-conditioned: the
# continuous EB bound's 1/(J - 1/n) cancels as n J -> 1.  J_q and J_q'
# cover their whole domain, up to delta = (q-1)/q.
CASES = {
    "entropy": (entropy, st.tuples(Q, st.floats(0.0, 1.0))),
    "entropy_d1": (entropy_d1, st.tuples(Q, UNIT_OPEN)),
    "entropy_d2": (entropy_d2, st.tuples(Q, UNIT_OPEN)),
    "johnson_radius": (johnson_radius, _delta_args()),
    "johnson_radius_d1": (johnson_radius_d1, _delta_args(open_upper=True)),
    "stirling_bounds": (stirling_bounds, st.tuples(st.integers(1, 10 ** 6))),
    "eb_rate_bound": (eb_rate_bound, _eb_args()),
    "eb_rate_bound_continuous": (eb_rate_bound_continuous,
                                 _eb_args(min_nJ=1.1)),
    "rank_bound": (rank_bound, _rank_args()),
    "constants": (constants, st.tuples(
        st.sampled_from([p for p in primes_up_to(101) if p >= 3]))),
    "threshold_F": (threshold_F, st.tuples(
        st.sampled_from(SUPPORTED_PRIMES), st.integers(16, 10 ** 6))),
}


def _values(result):
    if isinstance(result, RankBoundResult):
        return [result.r_upper]
    if isinstance(result, BoundResult):
        return [result.rate_upper, *(v for _, v in result.terms)]
    if isinstance(result, PrimeConstants):
        return [result.f1, result.f2, result.f3, result.f4, result.f5]
    if isinstance(result, tuple):
        return list(result)
    return [result]


@pytest.mark.parametrize("name", list(CASES))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_float64_and_50_digits_agree(name, data):
    fn, args = CASES[name]
    args = data.draw(args)
    try:
        low = fn(*args)
    except PreconditionError:
        assume(False)
    high = fn(*args, digits=50)
    for lo, hi in zip(_values(low), _values(high), strict=True):
        assert isinstance(lo, float)
        assert math.isclose(lo, float(hi), rel_tol=1e-12, abs_tol=1e-14), \
            (name, args, lo, hi)


@pytest.mark.parametrize("fn, q, delta", [
    (johnson_radius, 3, 0.6666666666666666),
    (johnson_radius, 5, 0.7999999999999999),
    (johnson_radius_d1, 5, 0.7999999999999999),
    (johnson_radius_d1, 4, 0.7499999999999999),
])
def test_johnson_near_top(fn, q, delta):
    # 1 - q delta/(q-1) is a few ulps here; rounding it in float64 once
    # cost up to 15% in J_q'
    assert math.isclose(fn(q, delta), float(fn(q, delta, digits=50)),
                        rel_tol=1e-12)


@pytest.mark.parametrize("q, delta", [(3, 1e-12), (2, 1e-10)])
def test_johnson_near_zero(q, delta):
    # 1 - sqrt(1 - q delta/(q-1)) cancels here; J_3(1e-12) was once 8.9e-5
    # off, which abs_tol in the property test above does not see
    assert math.isclose(johnson_radius(q, delta),
                        float(johnson_radius(q, delta, digits=50)),
                        rel_tol=1e-12)


@settings(max_examples=100, deadline=None, database=None)
@given(p=st.sampled_from(SUPPORTED_PRIMES + (285_343,)),
       ns=st.lists(st.integers(16, 400_000), min_size=1, max_size=50))
@example(p=285_343, ns=[19, 35, 39])
def test_threshold_F_array_matches_scalar(p, ns):
    # numpy's log of 285,343 is an ulp off math.log's: an array path with
    # a log of its own would move F in the last bit at these n
    values = threshold_F_array(p, np.array(ns))
    assert [float(v) for v in values] == [threshold_F(p, n) for n in ns]

