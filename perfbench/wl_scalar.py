"""scalar-grid: one caller evaluating the scalar bound functions over a
seeded grid, as two workloads that differ only in precision.

``scalar-grid.float64`` calls every scalar function in double precision;
``scalar-grid.mp50`` calls the five functions that accept ``digits`` with
``digits=50``.  Each pass draws fresh grid points, so a cache keyed on the
arguments gets no more reuse than a real caller sweeping parameters would
give it.  About one call in twenty is out of domain and must raise
DomainError or PreconditionError.

Checks: float64 and 50-digit values agree (the reference in the other
precision is computed untimed, before the pass); the finite rate bound
never exceeds the continuous one; classifications and codimension caps
agree with a 50-digit threshold; Hamming-ball volumes are exact.
"""

import math
from fractions import Fraction

import qbounds as Q
from qbounds.errors import DomainError, PreconditionError

from harness import PRIMES, Op, agree, expect_raises

DIGITS = 50
POINTS_PER_FUNCTION = 100
OUT_OF_DOMAIN_SHARE = 0.05

SETUP = """
import qbounds as Q
Q.entropy(3, 0.3); Q.entropy(3, 0.3, digits=50)
Q.johnson_radius(3, 0.25); Q.stirling_bounds(10); Q.hamming_ball_volume(3, 10, 3)
Q.eb_rate_bound(Q.BoundParams(q=3, n=100, d=25))
Q.eb_rate_bound_continuous(Q.BoundParams(q=3, n=100, d=25))
Q.rank_bound(3, 100, 0.25); Q.threshold_F(3, 100)
Q.classify_rank(3, 100, 30); Q.codim_guarantees(3, 100, 30)
"""

REJECTS = (DomainError, PreconditionError)


def _log_uniform_int(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _agrees(ref):
    def check(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        got = result if isinstance(result, tuple) else (result,)
        want = ref if isinstance(ref, tuple) else (ref,)
        for g, w in zip(got, want):
            if not agree(float(g), float(w)):
                return f"float64 and {DIGITS}-digit values differ: {g} vs {w}"
        return None
    return check


def _eb(q, n, d):
    return Q.eb_rate_bound(Q.BoundParams(q=q, n=n, d=d))


def _eb_cont(q, n, d):
    return Q.eb_rate_bound_continuous(Q.BoundParams(q=q, n=n, d=d))


def _bound_check(other, finite_first):
    """finite <= continuous on the same parameters, and terms sum up."""
    def check(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        if not agree(sum(v for _, v in result.terms), result.rate_upper):
            return "terms do not sum to rate_upper"
        fin, cont = ((result.rate_upper, other) if finite_first
                     else (other, result.rate_upper))
        if not fin <= cont:
            return f"finite bound {fin} exceeds continuous bound {cont}"
        return None
    return check


def _eb_args(rng):
    """In-domain (q, n, d) with e >= 1, and the continuous precondition."""
    while True:
        q = rng.randint(2, 11)
        n = rng.randint(20, 2000)
        top = (q - 1) / q
        d = max(1, int(rng.uniform(0.02, 0.95 * top) * n))
        if Fraction(d, n) >= Fraction(q - 1, q):
            continue
        J = Q.johnson_radius(q, Fraction(d, n))
        if n * J > 2.0:
            return q, n, d


def _classify_ref(p, n, r):
    """Classification recomputed from a 50-digit threshold."""
    max_rank = n // 2
    if r > max_rank:
        return "IMPOSSIBLE"
    if r == max_rank:
        return "MAX_RANK_ONLY"
    if r >= Q.baseline_rank(n):
        return "BASELINE"
    if r > Q.threshold_F(p, n, digits=DIGITS):
        return "MAIN_THEOREM"
    return "NO_CONCLUSION"


def _float_op(rng, fn_name):
    """One float64 call; the reference is computed in 50 digits."""
    if fn_name == "entropy":
        q, x = rng.randint(2, 11), rng.uniform(0.001, 0.999)
        return Op("entropy.float64", "qcore.entropy.float", Q.entropy, (q, x),
                  _agrees(Q.entropy(q, x, digits=DIGITS)))
    if fn_name == "johnson_radius":
        q = rng.randint(2, 11)
        delta = rng.uniform(0.0, 0.999 * (q - 1) / q)
        return Op("johnson_radius.float64", "qcore.johnson_radius.float",
                  Q.johnson_radius, (q, delta),
                  _agrees(Q.johnson_radius(q, delta, digits=DIGITS)))
    if fn_name == "stirling_bounds":
        k = _log_uniform_int(rng, 1, 10 ** 6)
        return Op("stirling_bounds.float64", "qcore.stirling_bounds.float",
                  Q.stirling_bounds, (k,),
                  _agrees(Q.stirling_bounds(k, digits=DIGITS)))
    if fn_name == "hamming_ball_volume":
        q, n = rng.randint(2, 11), rng.randint(1, 200)
        e = rng.randint(0, n)
        want = sum(math.comb(n, i) * (q - 1) ** i for i in range(e + 1))
        return Op("hamming_ball_volume", "qcore.hamming_ball_volume",
                  Q.hamming_ball_volume, (q, n, e),
                  lambda r, exc: None if exc is None and r == want
                  else f"volume {r!r} != {want} ({exc!r})")
    if fn_name == "eb_rate_bound":
        q, n, d = _eb_args(rng)
        return Op("eb_rate_bound", "eb_bounds.eb_rate_bound", _eb, (q, n, d),
                  _bound_check(_eb_cont(q, n, d).rate_upper, True))
    if fn_name == "eb_rate_bound_continuous":
        q, n, d = _eb_args(rng)
        return Op("eb_rate_bound_continuous", "eb_bounds.eb_rate_bound_continuous",
                  _eb_cont, (q, n, d),
                  _bound_check(_eb(q, n, d).rate_upper, False))
    if fn_name == "rank_bound":
        p, n, delta = rng.choice(PRIMES), rng.randint(20, 2000), rng.uniform(0.1, 0.45)
        ref = Q.rank_bound(p, n, delta, digits=DIGITS).r_upper
        return Op("rank_bound.float64", "eb_bounds.rank_bound.float",
                  lambda *a: Q.rank_bound(*a).r_upper, (p, n, delta), _agrees(ref))
    if fn_name == "threshold_F":
        p, n = rng.choice(PRIMES), _log_uniform_int(rng, 32, 10 ** 6)
        return Op("threshold_F.float64", "geometry.threshold_F.float",
                  Q.threshold_F, (p, n),
                  _agrees(Q.threshold_F(p, n, digits=DIGITS)))
    if fn_name == "classify_rank":
        p, n = rng.choice(PRIMES), rng.randint(16, 5000)
        r = rng.randint(0, n // 2 + 2)
        want = _classify_ref(p, n, r)
        return Op("classify_rank", "geometry.classify_rank", Q.classify_rank,
                  (p, n, r),
                  lambda res, exc: None if exc is None
                  and res.classification.value == want
                  else f"classification {res and res.classification} != {want} ({exc!r})")
    if fn_name == "codim_guarantees":
        p, n = rng.choice(PRIMES), rng.randint(16, 5000)
        r = rng.randint(1, n // 2)
        F = Q.threshold_F(p, n, digits=DIGITS)
        rb = Q.rank_bound(p, n // 2, Fraction(1, 4), digits=DIGITS).r_upper

        def check(res, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            if not (agree(res.F_value, float(F)) and agree(res.rank_bound_quarter, float(rb))):
                return "codim values disagree with the 50-digit reference"
            if res.applicable != (r > F):
                return f"applicable={res.applicable} but r={r}, F={float(F)}"
            return None
        return Op("codim_guarantees", "geometry.codim_guarantees",
                  Q.codim_guarantees, (p, n, r), check)
    raise KeyError(fn_name)


def _mp_op(rng, fn_name):
    """One 50-digit call; the reference is the float64 value."""
    if fn_name == "entropy":
        q, x = rng.randint(2, 11), rng.uniform(0.001, 0.999)
        return Op("entropy.mp50", "qcore.entropy.mp50", Q.entropy,
                  (q, x, DIGITS), _agrees(Q.entropy(q, x)))
    if fn_name == "johnson_radius":
        q = rng.randint(2, 11)
        delta = rng.uniform(0.0, 0.999 * (q - 1) / q)
        return Op("johnson_radius.mp50", "qcore.johnson_radius.mp50",
                  Q.johnson_radius, (q, delta, DIGITS),
                  _agrees(Q.johnson_radius(q, delta)))
    if fn_name == "stirling_bounds":
        k = _log_uniform_int(rng, 1, 10 ** 6)
        return Op("stirling_bounds.mp50", "qcore.stirling_bounds.mp50",
                  Q.stirling_bounds, (k, DIGITS), _agrees(Q.stirling_bounds(k)))
    if fn_name == "rank_bound":
        p, n, delta = rng.choice(PRIMES), rng.randint(20, 2000), rng.uniform(0.1, 0.45)
        return Op("rank_bound.mp50", "eb_bounds.rank_bound.mp50",
                  lambda *a: Q.rank_bound(*a).r_upper, (p, n, delta, DIGITS),
                  _agrees(Q.rank_bound(p, n, delta).r_upper))
    if fn_name == "threshold_F":
        p, n = rng.choice(PRIMES), _log_uniform_int(rng, 32, 10 ** 6)
        return Op("threshold_F.mp50", "geometry.threshold_F.mp50",
                  Q.threshold_F, (p, n, DIGITS), _agrees(Q.threshold_F(p, n)))
    raise KeyError(fn_name)


# Out-of-domain calls: (function, maker of its arguments); each must raise
# one of REJECTS.
_OUT_OF_DOMAIN = {
    "entropy": (Q.entropy, lambda rng: (rng.randint(2, 11), 1.5)),
    "johnson_radius": (Q.johnson_radius, lambda rng: (rng.randint(2, 11), 1.0)),
    "stirling_bounds": (Q.stirling_bounds, lambda rng: (0,)),
    "hamming_ball_volume": (Q.hamming_ball_volume,
                            lambda rng: (3, 10, 11)),
    "eb_rate_bound": (_eb, lambda rng: (rng.randint(2, 11), 50, 50)),
    "eb_rate_bound_continuous": (_eb_cont, lambda rng: (3, 20, 1)),
    "rank_bound": (Q.rank_bound, lambda rng: (9, 100, 0.25)),
    "threshold_F": (Q.threshold_F, lambda rng: (rng.choice(PRIMES), 10)),
    "classify_rank": (Q.classify_rank, lambda rng: (rng.choice(PRIMES), 100, -1)),
    "codim_guarantees": (Q.codim_guarantees,
                         lambda rng: (rng.choice(PRIMES), 8, 2)),
}

FLOAT_FUNCTIONS = ("entropy", "johnson_radius", "stirling_bounds",
                   "hamming_ball_volume", "eb_rate_bound",
                   "eb_rate_bound_continuous", "rank_bound", "threshold_F",
                   "classify_rank", "codim_guarantees")
MP_FUNCTIONS = ("entropy", "johnson_radius", "stirling_bounds", "rank_bound",
                "threshold_F")

_SPAN_PREFIX = {
    "entropy": "qcore.entropy", "johnson_radius": "qcore.johnson_radius",
    "stirling_bounds": "qcore.stirling_bounds",
    "hamming_ball_volume": "qcore.hamming_ball_volume",
    "eb_rate_bound": "eb_bounds.eb_rate_bound",
    "eb_rate_bound_continuous": "eb_bounds.eb_rate_bound_continuous",
    "rank_bound": "eb_bounds.rank_bound", "threshold_F": "geometry.threshold_F",
    "classify_rank": "geometry.classify_rank",
    "codim_guarantees": "geometry.codim_guarantees",
}


def _reject_op(rng, fn_name, precision):
    fn, build = _OUT_OF_DOMAIN[fn_name]
    args = build(rng)
    span = _SPAN_PREFIX[fn_name]
    if fn_name in MP_FUNCTIONS:
        span += ".float" if precision == "float64" else ".mp50"
        if precision == "mp50":
            args = args + (DIGITS,)
    return Op(f"{fn_name}.out_of_domain", span, fn, args, expect_raises(*REJECTS))


def make_pass(rng, precision, points=POINTS_PER_FUNCTION):
    """One shuffled pass: ``points`` calls per function, each out of domain
    with probability OUT_OF_DOMAIN_SHARE."""
    functions = FLOAT_FUNCTIONS if precision == "float64" else MP_FUNCTIONS
    make = _float_op if precision == "float64" else _mp_op
    ops = []
    for fn_name in functions:
        for _ in range(points):
            if rng.random() < OUT_OF_DOMAIN_SHARE:
                ops.append(_reject_op(rng, fn_name, precision))
            else:
                ops.append(make(rng, fn_name))
    rng.shuffle(ops)
    return ops


def per_layer(rec, tracer, passes):
    """Counters this workload adds to the per-layer metrics."""
    rejects = sum(s.attempted - s.failed for name, s in rec.ops.items()
                  if name.endswith(".out_of_domain")
                  and _SPAN_PREFIX[name.split(".")[0]].startswith("eb_bounds."))
    return {"eb_bounds.domain_rejects": rejects}
