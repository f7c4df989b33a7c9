"""The integer-argument rule: every integer argument of a public entry
point is an int (a bool is not) in its range, else a DomainError whose
message names the argument.  A prime argument p goes through the prime
check instead, and ``digits`` may also be None (double precision)."""

import inspect

import pytest

from qbounds import (BoundParams, DomainError, baseline_rank, classify_rank,
                     codim_guarantees, constants, derive_c_n0, derive_N,
                     eb_rate_bound, eb_rate_bound_continuous,
                     eb_soundness_sweep, entropy, entropy_d1, entropy_d2,
                     envelope_check, f1_monotonicity_scan,
                     hamming_ball_volume, johnson_ball_check, johnson_radius,
                     johnson_radius_d1, johnson_suite, make_code,
                     max_code_size, pigeonhole_suite, pigeonhole_witness,
                     random_code, rank_bound, stirling_bounds, threshold_F,
                     verify_rank_monotonicity)
from qbounds.oracle import upper_bound

_CODE = make_code(2, 6, [(0,) * 6, (1, 1, 1, 0, 0, 0)])  # d = 3
_PARAMS = BoundParams(q=3, n=20, d=5)

# (entry point, in-domain keyword arguments, {integer slot: an int out of
# its range}); a ``digits`` slot, out of range at 0, is added for every
# entry point that takes one
_ENTRY_POINTS = [
    (entropy, {"q": 3, "x": 0.5}, {"q": 1}),
    (entropy_d1, {"q": 3, "x": 0.5}, {"q": 1}),
    (entropy_d2, {"q": 3, "x": 0.5}, {"q": 1}),
    (johnson_radius, {"q": 3, "delta": 0.25}, {"q": 1}),
    (johnson_radius_d1, {"q": 3, "delta": 0.25}, {"q": 1}),
    (hamming_ball_volume, {"q": 3, "n": 5, "e": 2},
     {"q": 1, "n": -1, "e": 6}),
    (stirling_bounds, {"k": 10}, {"k": 0}),
    (BoundParams, {"q": 3, "n": 10, "d": 3}, {"q": 1, "n": 0, "d": 11}),
    (eb_rate_bound, {"params": _PARAMS}, {}),
    (eb_rate_bound_continuous, {"params": _PARAMS}, {}),
    (rank_bound, {"p": 3, "n": 100, "delta": 0.25}, {"n": 0}),
    (verify_rank_monotonicity, {"p": 3, "n": 20}, {"n": 0}),
    (threshold_F, {"p": 3, "n": 100}, {"n": 0}),
    (baseline_rank, {"n": 20}, {"n": 4}),
    (classify_rank, {"p": 3, "n": 2000, "r": 600}, {"n": 4, "r": -1}),
    (codim_guarantees, {"p": 3, "n": 2000, "r": 600}, {"n": 15, "r": 0}),
    (constants, {"p": 3}, {}),
    (derive_c_n0, {"p": 3}, {}),
    (derive_N, {"p": 3}, {}),
    (f1_monotonicity_scan, {"p_max": 101}, {"p_max": 2}),
    (envelope_check, {"p": 3, "n_lo": 16, "n_hi": 100},
     {"n_lo": 15, "n_hi": 16}),
    (make_code, {"q": 2, "n": 4, "words": []}, {"q": 1, "n": 0}),
    (random_code, {"q": 2, "n": 3, "size": 2, "seed": 0},
     {"q": 1, "n": 0, "size": 9, "seed": -1}),
    (upper_bound, {"q": 2, "n": 4, "d": 2}, {"q": 1, "n": 0, "d": 5}),
    (max_code_size, {"q": 2, "n": 4, "d": 2}, {"q": 1, "n": 0, "d": 5}),
    (pigeonhole_witness, {"code": _CODE, "e": 1}, {"e": 7}),
    (johnson_ball_check, {"code": _CODE, "e": 1}, {"e": 7}),
    (pigeonhole_suite, {"trials": 2}, {"trials": 0, "seed": -1}),
    (johnson_suite, {"trials": 2}, {"trials": 0, "seed": -1}),
    (eb_soundness_sweep, {"q_set": (2,), "n_max": 4}, {"n_max": 1}),
]


def _slots(fn, slots):
    if "digits" in inspect.signature(fn).parameters:
        return {**slots, "digits": 0}
    return slots


_CASES = [
    pytest.param(fn, kwargs, slot, value,
                 id=f"{fn.__name__}-{slot}-{value!r}")
    for fn, kwargs, slots in _ENTRY_POINTS
    for slot, bad in _slots(fn, slots).items()
    for value in (True, 2.0, None, bad)
    if not (slot == "digits" and value is None)]


@pytest.mark.parametrize("fn, kwargs, slot, value", _CASES)
def test_a_bad_integer_argument_is_named(fn, kwargs, slot, value):
    with pytest.raises(DomainError) as exc:
        fn(**{**kwargs, slot: value})
    message = str(exc.value)
    assert message.startswith(f"{slot} must be an integer "), message
    assert message.endswith(f", got {value!r}"), message
