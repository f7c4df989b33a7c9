"""table-scans: repeated full re-derivations of the published tables.

One pass calls, for each of the nine supported primes, ``derive_c_n0``,
``derive_N``, the anchor scan over [16, N(p)] (through the CLI's
``tables --which anchor``, in process, so that the code path the command
uses is the one measured) and ``envelope_check(p, 16, 10**5)``, then
``f1_monotonicity_scan(101)`` once.  The work is the same in every pass;
the seed only orders it.

Checks: n0(p), N(p) and the anchor claim match ``paper_constants.json``
(read directly from the package data, not through the library), the
envelope holds from the reported n* on and fails just below it, and f1
crosses 3/8 between p = 29 and p = 31.
"""

import contextlib
import io
import json
import math

import qbounds as Q
from qbounds import cli

from harness import PRIMES, SRC, Op

ENVELOPE_HI = 10 ** 5
DERIVE_N_CAP = 200_000  # derive_N's default cap

SETUP = """
import contextlib, io
import numpy as np
import qbounds as Q
from qbounds import cli
Q.threshold_F_array(3, np.arange(16, 1000))
Q.envelope_check(3, 16, 1000)
Q.f1_monotonicity_scan(31)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["tables", "--which", "anchor", "--primes", "3", "--deterministic"])
"""


def paper_constants():
    with open(SRC / "qbounds" / "data" / "paper_constants.json") as fh:
        raw = json.load(fh)
    return {"n0": {int(p): v for p, v in raw["n0"].items()},
            "N": {int(p): v for p, v in raw["N"].items()}}


def anchor_scan(p):
    """``qbounds tables --which anchor --primes p``, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["tables", "--which", "anchor", "--primes", str(p),
                         "--deterministic"])
    return code, buf.getvalue()


def _envelope_holds(p, n):
    F = Q.threshold_F(p, n)
    return n / 4.0 < F <= math.sqrt(3.0) * n / 4.0


def make_pass(rng, rec, primes=PRIMES, envelope_hi=ENVELOPE_HI):
    """The pass's calls in a seeded order; checks feed ``rec.counters``."""
    paper = paper_constants()
    ops = []
    for p in primes:
        def check_cn0(res, exc, p=p):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            rec.count("escalations", res.escalations)
            start = max(16, int(math.floor(2.0 / Q.constants(p).f5)) + 2)
            rec.count("scan_points", res.cap - start + 1)
            if res.n0 != paper["n0"][p]:
                return f"n0({p}) = {res.n0}, published {paper['n0'][p]}"
            return None

        def check_N(res, exc, p=p):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            rec.count("escalations", res.escalations)
            rec.count("scan_points", DERIVE_N_CAP - 16 + 1)
            if res.N != paper["N"][p] or res.first_failure != res.N + 1:
                return f"N({p}) = {res.N}, published {paper['N'][p]}"
            return None

        def check_anchor(res, exc, p=p):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            code, out = res
            rows = json.loads(out)["results"]["rows"]
            if code != 0 or len(rows) != 1:
                return f"anchor scan exit {code}, {len(rows)} rows"
            row = rows[0]
            scanned = row["scanned"]["value"]
            rec.count("scan_points", scanned)
            if not row["anchor_holds"] or scanned != paper["N"][p] - 15:
                return f"anchor claim fails on [16, {paper['N'][p]}] for p={p}"
            return None

        def check_envelope(res, exc, p=p):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            rec.count("scan_points", res.instances_checked)
            n_star = res.payload.get("n_star")
            if not res.passed or res.instances_checked != envelope_hi - 15:
                return f"envelope check failed for p={p}"
            if not _envelope_holds(p, n_star) or (
                    n_star > 16 and _envelope_holds(p, n_star - 1)):
                return f"n*={n_star} is not where the envelope starts (p={p})"
            return None

        ops += [
            Op("derive_c_n0", "geometry.derive_c_n0", Q.derive_c_n0, (p,), check_cn0),
            Op("derive_N", "geometry.derive_N", Q.derive_N, (p,), check_N),
            Op("anchor_scan", "geometry.anchor_scan", anchor_scan, (p,), check_anchor),
            Op("envelope_check", "geometry.envelope_check", Q.envelope_check,
               (p, 16, envelope_hi), check_envelope),
        ]

    def check_f1(res, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        rec.count("escalations", res.payload.get("escalations", 0))
        if not (res.passed and res.payload["f1_29"] < 0.375 < res.payload["f1_31"]):
            return "f1 does not cross 3/8 between p = 29 and p = 31"
        return None

    ops.append(Op("f1_monotonicity_scan", "geometry.f1_monotonicity_scan",
                  Q.f1_monotonicity_scan, (101,), check_f1))
    rng.shuffle(ops)
    return ops


SCAN_SPANS = ("geometry.derive_c_n0", "geometry.derive_N",
              "geometry.anchor_scan", "geometry.envelope_check")


def per_layer(rec, tracer, passes):
    points = rec.counters.get("scan_points", 0)
    times = tracer.self_times()
    scan_ns = sum(times[s][1] for s in SCAN_SPANS if s in times)
    return {
        "geometry.scan_points": points / passes,
        "geometry.scan_ns_per_point": scan_ns / points if points else 0.0,
        "precision.escalations": rec.counters.get("escalations", 0) / passes,
    }
