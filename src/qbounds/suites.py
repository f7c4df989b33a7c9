"""The verification suites behind ``qbounds verify``: ``SUITES`` maps each
name to a callable taking the seed (unused by deterministic suites) and the
working precision ``digits`` (used by the suites that escalate comparisons).
A suite's library module is imported only when the suite runs."""

import qbounds

from .report import VerificationReport, first_failure

# ln k! sits only ~1/(360 k^3) below the bracket's upper edge, inside
# float64 noise from k ~ 1e3 on, so both sides are compared in software
# precision.
STIRLING_DIGITS = 50


def verify_stirling() -> VerificationReport:
    """The Robbins bracket holds for every k <= 10^4 and at 10^5, 10^6."""
    import mpmath
    from .qcore import stirling_bounds

    def checks():
        for k in [*range(1, 10_001), 10 ** 5, 10 ** 6]:
            lo, hi = stirling_bounds(k, digits=STIRLING_DIGITS)
            ref = mpmath.loggamma(k + 1)
            yield None if lo < ref < hi else {
                "k": k, "lower": float(lo), "ln_kfact": float(ref),
                "upper": float(hi)}

    with mpmath.workdps(STIRLING_DIGITS):
        return first_failure("stirling", checks())


def verify_monotonicity() -> VerificationReport:
    """rank_bound(p, n, 1/3) < rank_bound(p, n, 1/4) on a grid of n."""
    from .eb_bounds import verify_rank_monotonicity
    from .geometry import SUPPORTED_PRIMES
    grid = list(range(16, 201)) + [10 ** 3, 10 ** 4, 10 ** 5]
    return first_failure("monotonicity", (
        None if verify_rank_monotonicity(p, n) else {"p": p, "n": n}
        for p in SUPPORTED_PRIMES for n in grid))


def verify_envelope(digits=None) -> VerificationReport:
    """The envelope n/4 < F(n, p) <= sqrt(3) n/4 up to n = 10^5, with its
    starting point n* for every supported prime."""
    from .geometry import SUPPORTED_PRIMES, envelope_check
    payload = {"n_star": {}, "escalations": 0}
    checked = []  # the instances each prime's check decided

    def checks():
        for p in SUPPORTED_PRIMES:
            rep = envelope_check(p, 16, 10 ** 5, digits)
            checked.append(rep.instances_checked)
            if rep.passed:
                payload["n_star"][str(p)] = rep.payload["n_star"]
                payload["escalations"] += rep.payload["escalations"]
            yield rep.counterexample

    rep = first_failure("envelope", checks(), payload)
    return rep._replace(instances_checked=sum(checked))


SUITES = {
    "stirling": lambda seed, digits=None: verify_stirling(),
    "johnson": lambda seed, digits=None: qbounds.johnson_suite(seed=seed),
    "pigeonhole": lambda seed, digits=None:
        qbounds.pigeonhole_suite(seed=seed),
    "eb-soundness": lambda seed, digits=None: qbounds.eb_soundness_sweep(),
    "monotonicity": lambda seed, digits=None: verify_monotonicity(),
    "f1": lambda seed, digits=None: qbounds.f1_monotonicity_scan(101, digits),
    "envelope": lambda seed, digits=None: verify_envelope(digits),
}
