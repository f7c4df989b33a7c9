"""cli-mix: one client in a closed loop, starting a fresh
``python -m qbounds.cli`` process per request and waiting for it to end.

Every pass holds the same request kinds, each with seeded arguments, in a
seeded order: ``eval`` in float64 and with ``--digits 50``, ``bound`` in
its three forms, ``classify``, ``tables --which constants|candn0``,
``verify --suite f1|monotonicity``, ``oracle --q 3 --n 4 --d 3`` and two
malformed requests.  Process start and imports are most of each request.

Checks: exit code 0 (2 for a malformed request, with one ``error:`` line
on stderr and nothing on stdout), the JSON ``schema_version``, and the
values, which must equal the library's own results computed here before
the pass.

The known defects are requests that fail today.  They are probed once
per run, outside the timed passes, and reported by name; see
``KNOWN_DEFECTS``.
"""

import json

import numpy as np

import qbounds as Q
from qbounds import cli

from harness import PRIMES, Op, run_child
from wl_oracle import witness_min_distance

SCHEMA_VERSION = cli.SCHEMA_VERSION

SETUP = """
import qbounds.cli
qbounds.cli.build_parser()
"""

# name -> (argv, what correct behaviour is, predicate on the completed
# process that is true while the defect is present)
KNOWN_DEFECTS = {
    "verify-stirling-exit-1": (
        ["verify", "--suite", "stirling", "--deterministic"],
        "exit 0: the Stirling bracket holds for every k",
        lambda p: p.returncode == 1),
    "eval-digits-negative-accepted": (
        ["eval", "entropy", "--q", "3", "--x", "0.3", "--digits", "-5",
         "--deterministic"],
        "exit 2 with a one-line error",
        lambda p: p.returncode == 0),
    "eval-digits-zero-ignored": (
        ["eval", "entropy", "--q", "3", "--x", "0.3", "--digits", "0",
         "--deterministic"],
        "exit 2 with a one-line error",
        lambda p: p.returncode == 0),
}


def request(argv):
    """One request: a fresh CLI process, run to completion."""
    _, proc = run_child(["-m", "qbounds.cli", *argv])
    return proc


def _document(proc):
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    doc = json.loads(proc.stdout)
    if doc.get("schema_version") != SCHEMA_VERSION:
        return None, f"schema_version {doc.get('schema_version')!r}"
    return doc, None


def _value_check(extract, want):
    def check(proc, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        doc, err = _document(proc)
        if err:
            return err
        got = extract(doc["results"])
        return None if got == want else f"value {got!r} != {want!r}"
    return check


def _reject_check(proc, exc):
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    lines = proc.stderr.strip().splitlines()
    if proc.returncode != 2 or proc.stdout or len(lines) != 1 \
            or not lines[0].startswith("error:"):
        return f"malformed request: exit {proc.returncode}, stderr {proc.stderr!r}"
    return None


def _value(r):
    return r["value"]["value"]


def _eval_op(rng, digits):
    fn = rng.choice(("entropy", "johnson", "stirling", "ball_volume"))
    q = rng.randint(2, 11)
    if fn == "entropy":
        x = round(rng.uniform(0.01, 0.99), 6)
        argv, extract = ["--q", str(q), "--x", repr(x)], _value
        want = float(Q.entropy(q, x, digits=digits))
    elif fn == "johnson":
        delta = round(rng.uniform(0.0, 0.99 * (q - 1) / q), 6)
        argv, extract = ["--q", str(q), "--delta", repr(delta)], _value
        want = float(Q.johnson_radius(q, delta, digits=digits))
    elif fn == "stirling":
        k = rng.randint(1, 10 ** 6)
        argv = ["--k", str(k)]
        extract = lambda r: (r["lower"]["value"], r["upper"]["value"])  # noqa: E731
        want = tuple(float(v) for v in Q.stirling_bounds(k, digits=digits))
    else:
        n = rng.randint(1, 200)
        e = rng.randint(0, n)
        argv, extract = ["--q", str(q), "--n", str(n), "--e", str(e)], _value
        want = Q.hamming_ball_volume(q, n, e)
    if digits:
        argv += ["--digits", str(digits)]
    return Op("cli.eval", "cli.eval", request,
              (["eval", fn, *argv, "--deterministic"],),
              _value_check(extract, want))


def _bound_ops(rng):
    q = rng.randint(2, 11)
    n = rng.randint(50, 2000)
    while True:
        d = rng.randint(2, n - 1)
        if d / n < 0.8 * (q - 1) / q and n * Q.johnson_radius(q, d / n) > 2:
            break
    params = Q.BoundParams(q=q, n=n, d=d)
    ops = []
    for form, fn in (("finite", Q.eb_rate_bound),
                     ("continuous", Q.eb_rate_bound_continuous)):
        br = fn(params)
        ops.append(Op("cli.bound", "cli.bound", request,
                      (["bound", "--q", str(q), "--n", str(n), "--d", str(d),
                        "--form", form, "--deterministic"],),
                      _value_check(lambda r: (r["rate_upper"]["value"],
                                              r["e"]["value"]),
                                   (br.rate_upper, br.e))))
    p = rng.choice(PRIMES)
    delta = round(rng.uniform(0.1, 0.45), 6)
    rn = rng.randint(50, 2000)
    rb = Q.rank_bound(p, rn, delta)
    ops.append(Op("cli.bound", "cli.bound", request,
                  (["bound", "--p", str(p), "--n", str(rn), "--delta", repr(delta),
                    "--form", "rank", "--deterministic"],),
                  _value_check(lambda r: r["r_upper"]["value"], rb.r_upper)))
    return ops


def _classify_op(rng):
    p = rng.choice(PRIMES)
    n = rng.randint(16, 5000)
    r = rng.randint(0, n // 2)
    rep = Q.classify_rank(p, n, r)
    return Op("cli.classify", "cli.classify", request,
              (["classify", "--p", str(p), "--n", str(n), "--r", str(r),
                "--deterministic"],),
              _value_check(lambda res: (res["classification"],
                                        res["F_value"]["value"]),
                           (rep.classification.value, rep.F_value)))


def _tables_ops(rng, paper_n0):
    primes = sorted(rng.sample(PRIMES, 3))
    want_constants = [[getattr(Q.constants(p), f) for f in ("f1", "f2", "f3", "f4", "f5")]
                      for p in primes]
    return [
        Op("cli.tables", "cli.tables", request,
           (["tables", "--which", "constants", "--primes", *map(str, primes),
             "--deterministic"],),
           _value_check(lambda r: [[row[f]["value"] for f in ("f1", "f2", "f3", "f4", "f5")]
                                   for row in r["rows"]], want_constants)),
        Op("cli.tables", "cli.tables", request,
           (["tables", "--which", "candn0", "--deterministic"],),
           _value_check(lambda r: [(row["p"], row["n0_recomputed"]["value"], row["match"])
                                   for row in r["rows"]],
                        [(p, paper_n0[p], True) for p in PRIMES])),
    ]


def _verify_ops():
    f1 = Q.f1_monotonicity_scan(101)
    mono_instances = len(PRIMES) * (len(range(16, 201)) + 3)
    return [
        Op("cli.verify", "cli.verify", request,
           (["verify", "--suite", "f1", "--deterministic"],),
           _value_check(lambda r: (r["reports"][0]["passed"],
                                   r["reports"][0]["payload"]["f1_29"]),
                        (True, f1.payload["f1_29"]))),
        Op("cli.verify", "cli.verify", request,
           (["verify", "--suite", "monotonicity", "--deterministic"],),
           _value_check(lambda r: (r["reports"][0]["passed"],
                                   r["reports"][0]["instances_checked"]["value"]),
                        (True, mono_instances))),
    ]


def _oracle_check(proc, exc):
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    doc, err = _document(proc)
    if err:
        return err
    res = doc["results"]
    lines = res["witness"].split()[4:]
    words = np.array([[int(c) for c in w] for w in lines])
    min_d = witness_min_distance(words)
    if res["max_code_size"]["value"] != 9 or len(words) != 9 or min_d < 3:
        return f"A_3(4,3): {res['max_code_size']['value']}, witness d={min_d}"
    return None


# Malformed requests that the library rejects: each must exit 2.
MALFORMED = (
    ["eval", "entropy", "--q", "3", "--x", "1.5"],
    ["eval", "johnson", "--q", "1", "--delta", "0.2"],
    ["bound", "--q", "3", "--n", "10", "--d", "20"],
    ["bound", "--p", "9", "--n", "100", "--delta", "0.25", "--form", "rank"],
    ["classify", "--p", "4", "--n", "100", "--r", "10"],
    ["tables", "--which", "candn0", "--primes", "31"],
    ["oracle", "--q", "2", "--n", "30", "--d", "3"],
)


def make_pass(rng, paper_n0):
    ops = [_eval_op(rng, None), _eval_op(rng, None), _eval_op(rng, 50),
           *_bound_ops(rng), _classify_op(rng), *_tables_ops(rng, paper_n0),
           *_verify_ops(),
           Op("cli.oracle", "cli.oracle", request,
              (["oracle", "--q", "3", "--n", "4", "--d", "3", "--deterministic"],),
              _oracle_check)]
    for argv in rng.sample(MALFORMED, 2):
        ops.append(Op("cli.reject", "cli.reject", request, (argv,), _reject_check))
    rng.shuffle(ops)
    return ops


def probe_known_defects():
    """name -> status ("present" or "fixed") and the correct behaviour,
    from one untimed request each."""
    return {name: {"status": "present" if present(request(argv)) else "fixed",
                   "correct": correct}
            for name, (argv, correct, present) in KNOWN_DEFECTS.items()}


def per_layer(rec, tracer, passes):
    return {}
