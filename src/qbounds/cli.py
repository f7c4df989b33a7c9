"""Command-line front end.

Subcommands: eval, bound, tables, verify, oracle, classify, each declared
once in the ``_COMMANDS`` table.  A request builds the parser of its own
subcommand only, and its handler imports only the library modules it uses;
help and usage errors that name no subcommand use the full parser.  One
structured JSON document goes to stdout; diagnostics go to stderr.  Exit
codes: 0 = success / all-pass, 1 = verification or table mismatch, 2 = usage
or precondition error.  QB_PRECISION (decimal digits) overrides the default
working precision; the --digits flag beats the environment variable.
"""

import argparse
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from numbers import Rational, Real

from . import __version__
from .errors import (DomainError, PreconditionError, QBoundsError,
                     ResourceBudgetError)
from .precision import (DEFAULT_POLICY, DOUBLE_DIGITS, PrecisionPolicy,
                        check_digits)
from .suites import SUITES

SCHEMA_VERSION = "1"

HOMOTOPY_NOTE = ("homotopy equivalent to S^n, RP^n, CP^{n/2}, or a lens space")


def computed(x):
    return {"value": x, "provenance": "computed"}


def paper_val(x):
    return {"value": x, "provenance": "paper-constant"}


def _document(command, inputs, results, diagnostics, deterministic):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
    }
    if not deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return doc


def _emit(doc, pretty=False):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, default=str,
                          allow_nan=False)
    except ValueError:  # inf or nan: not a JSON number
        raise DomainError("a result is not a finite double; if float64 "
                          "overflowed, retry with --digits") from None
    print(_render_pretty(doc) if pretty else text)


def _render_pretty(doc):
    """One ``key: value`` line per scalar, nested blocks indented under
    their key; a {value, provenance} pair prints as ``value  [provenance]``."""
    out = []

    def walk(obj, head, depth):
        if isinstance(obj, dict) and set(obj) != {"value", "provenance"}:
            items = [(f"{k}: ", v) for k, v in obj.items()]
        elif isinstance(obj, list):
            items = [("- ", v) for v in obj]
        else:
            if isinstance(obj, dict):
                obj = f"{obj['value']}  [{obj['provenance']}]"
            out.extend(f"{head}{obj}".splitlines())  # a witness spans lines
            return
        if head:
            out.append(head.rstrip())
        for label, v in items:
            walk(v, "  " * depth + label, depth + 1)

    walk(doc, "", 0)
    return "\n".join(out)


def _digits(args):
    source, digits = "--digits", args.digits
    if digits is None:
        env = os.environ.get("QB_PRECISION")
        if not env:
            return None
        source = "QB_PRECISION"
        try:
            digits = int(env)
        except ValueError:
            raise DomainError(f"QB_PRECISION must be an integer, got {env!r}")
    check_digits(digits, source)
    return digits


def _policy(dig) -> PrecisionPolicy:
    if dig is None:
        return DEFAULT_POLICY
    return PrecisionPolicy(escalation_digits=max(dig, DOUBLE_DIGITS))


def _num(x, digits=None):
    """JSON-safe numeric conversion (mpf -> float, Fraction -> str).  An mpf
    computed at ``digits`` digits that a double cannot hold (it overflows,
    or a nonzero value underflows to zero) is printed as a decimal string
    with ``digits`` significant digits."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Real) and not isinstance(x, Rational):
        f = float(x)
        if digits is not None and (math.isinf(f) or (f == 0 and x != 0)):
            import mpmath
            return mpmath.nstr(x, digits)
        return f
    return x


# --- subcommand handlers ---------------------------------------------------

# function -> (qcore function taking digits=, argument names)
_EVAL = {
    "entropy": ("entropy", ("q", "x")),
    "entropy_d1": ("entropy_d1", ("q", "x")),
    "entropy_d2": ("entropy_d2", ("q", "x")),
    "johnson": ("johnson_radius", ("q", "delta")),
    "johnson_d1": ("johnson_radius_d1", ("q", "delta")),
    "ball_volume": ("hamming_ball_volume", ("q", "n", "e")),
    "stirling": ("stirling_bounds", ("k",)),
}


def cmd_eval(args) -> int:
    from . import qcore
    dig = _digits(args)
    fn_name, names = _EVAL[args.function]
    inputs = {name: getattr(args, name) for name in names}
    missing = [f"--{name}" for name, v in inputs.items() if v is None]
    if missing:
        raise DomainError(f"eval {args.function} requires {', '.join(missing)}")
    fn = getattr(qcore, fn_name)
    value = (fn(*inputs.values()) if fn is qcore.hamming_ball_volume  # exact
             else fn(*inputs.values(), digits=dig))
    if args.function == "stirling":
        res = {"lower": computed(_num(value[0], dig)),
               "upper": computed(_num(value[1], dig))}
    else:
        res = {"value": computed(_num(value, dig))}
    if dig is not None:
        inputs["digits"] = dig
    _emit(_document("eval", inputs, res, [], args.deterministic), args.pretty)
    return 0


def cmd_bound(args) -> int:
    from .eb_bounds import (BoundParams, eb_rate_bound,
                            eb_rate_bound_continuous, rank_bound)
    dig = _digits(args)
    q = args.q if args.q is not None else args.p
    if q is None:
        raise DomainError("one of --q / --p is required")
    if (args.d is None) == (args.delta is None):
        raise DomainError("exactly one of --d / --delta is required")
    inputs = {"q": q, "n": args.n, "d": args.d, "delta": args.delta,
              "form": args.form}
    params = BoundParams(q=q, n=args.n, d=args.d, delta=args.delta)
    if args.form == "rank":
        res = rank_bound(q, args.n, params.delta_value, digits=dig)
        results = {"r_upper": computed(_num(res.r_upper, dig))}
    else:
        fn = eb_rate_bound if args.form == "finite" else eb_rate_bound_continuous
        res = fn(params, digits=dig)
        results = {"rate_upper": computed(_num(res.rate_upper, dig)),
                   "e": computed(res.e)}
    results["terms"] = [{"label": lab, **computed(_num(val, dig))}
                        for lab, val in res.terms]
    if dig is not None:
        inputs["digits"] = dig
    _emit(_document("bound", inputs, results, [], args.deterministic),
          args.pretty)
    return 0


def _tables_rows(which, primes, dig, diagnostics):
    from .geometry import (anchor_signs, constants, derive_c_n0, derive_N,
                           paper_tables)
    rows = []
    if which == "constants":  # computed only: no published value is read
        for p in primes:
            k = constants(p, dig)
            rows.append({"p": p, **{f: computed(_num(getattr(k, f), dig))
                                    for f in ("f1", "f2", "f3", "f4", "f5")}})
        return rows, False
    paper = paper_tables()
    policy = _policy(dig)
    mismatch = False

    def note(p, escalations):
        if escalations:
            diagnostics.append(
                ["info", f"p={p}: {escalations} comparisons "
                         f"escalated to {policy.escalation_digits} digits"])

    if which == "candn0":
        for p in primes:
            derived = derive_c_n0(p, policy=policy)
            note(p, derived.escalations)
            match = derived.n0 == paper["n0"][p]
            mismatch |= not match
            rows.append({"p": p, "c": paper_val(str(paper["c"][p])),
                         "n0_paper": paper_val(paper["n0"][p]),
                         "n0_recomputed": computed(derived.n0),
                         "match": match})
    elif which == "Np":
        for p in primes:
            derived = derive_N(p, policy=policy)
            note(p, derived.escalations)
            match = derived.N == paper["N"][p]
            mismatch |= not match
            rows.append({"p": p, "N_paper": paper_val(paper["N"][p]),
                         "N_recomputed": computed(derived.N),
                         "first_failure": computed(derived.first_failure),
                         "match": match})
    else:  # anchor
        for p in primes:
            N = paper["N"][p]
            ns, signs, escalations = anchor_signs(p, N, policy)
            note(p, escalations)
            holds = bool((signs > 0).all())
            mismatch |= not holds
            rows.append({"p": p, "N_paper": paper_val(N),
                         "scanned": computed(int(ns.size)),
                         "anchor_holds": holds})
    return rows, mismatch


def _rows_to_csv(rows):
    import csv

    def flat(v):
        if isinstance(v, dict) and set(v) == {"value", "provenance"}:
            return v["value"]
        return v
    buf = io.StringIO()
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: flat(v) for k, v in row.items()})
    return buf.getvalue()


def cmd_tables(args) -> int:
    from .geometry import SUPPORTED_PRIMES
    primes = tuple(args.primes) if args.primes else SUPPORTED_PRIMES
    for p in primes:
        if p not in SUPPORTED_PRIMES:
            raise DomainError(f"prime {p} is not in the supported set "
                              f"{SUPPORTED_PRIMES}")
    dig = _digits(args)
    diagnostics = []
    rows, mismatch = _tables_rows(args.which, primes, dig, diagnostics)
    inputs = {"which": args.which, "primes": list(primes), "format": args.format}
    if dig is not None:
        inputs["digits"] = dig
    if args.format == "csv":
        sys.stdout.write(_rows_to_csv(rows))
    else:
        doc = _document("tables", inputs, {"rows": rows}, diagnostics,
                        args.deterministic)
        _emit(doc, args.pretty)
    if mismatch:
        print("table mismatch against published values", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    dig = _digits(args)
    policy = _policy(dig)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    all_passed = True
    for name in suites:
        rep = SUITES[name](args.seed, policy)
        all_passed &= rep.passed
        results.append({
            "suite": rep.suite,
            "instances_checked": computed(rep.instances_checked),
            "passed": rep.passed,
            "counterexample": rep.counterexample,
            "payload": {k: _num(v, dig) for k, v in rep.payload.items()},
        })
    inputs = {"suite": args.suite, "seed": args.seed}
    if dig is not None:
        inputs["digits"] = dig
    doc = _document("verify", inputs, {"reports": results}, [],
                    args.deterministic)
    _emit(doc, args.pretty)
    return 0 if all_passed else 1


def cmd_oracle(args) -> int:
    from .eb_bounds import BoundParams, eb_rate_bound
    from .oracle import max_code_size, serialize_code, upper_bound
    dig = _digits(args)
    size, witness = max_code_size(args.q, args.n, args.d,
                                  time_limit=args.time_limit)
    ub = upper_bound(args.q, args.n, args.d)
    results = {
        "max_code_size": computed(size),
        "witness": serialize_code(witness),
        "upper_bound": {**computed(ub.value), "by": ub.by},
        "optimality": ("bound met" if size == ub.value
                       else "search exhausted"),
    }
    diagnostics = []
    try:
        bound = eb_rate_bound(BoundParams(q=args.q, n=args.n, d=args.d),
                              digits=dig)
        rate = math.log(size) / (args.n * math.log(args.q))
        results["rate"] = computed(rate)
        results["eb_rate_bound"] = computed(_num(bound.rate_upper, dig))
        results["sound"] = bool(rate <= bound.rate_upper)
    except (DomainError, PreconditionError) as exc:
        diagnostics.append(["info", f"bound comparison skipped: {exc}"])
    inputs = {"q": args.q, "n": args.n, "d": args.d}
    if dig is not None:
        inputs["digits"] = dig
    _emit(_document("oracle", inputs, results, diagnostics,
                    args.deterministic), args.pretty)
    return 0


def cmd_classify(args) -> int:
    from .geometry import classify_rank, codim_guarantees
    dig = _digits(args)
    report = classify_rank(args.p, args.n, args.r, dig)
    results = {
        "classification": report.classification.value,
        "F_value": computed(_num(report.F_value, dig)),
        "baseline": computed(report.baseline),
        "max_rank": computed(report.max_rank),
    }
    if report.classification.value in ("MAIN_THEOREM", "BASELINE",
                                       "MAX_RANK_ONLY"):
        results["conclusion"] = HOMOTOPY_NOTE
    if report.classification.value == "MAIN_THEOREM":
        codim = codim_guarantees(args.p, args.n, args.r, dig)
        results["codim_caps"] = {
            "tau1": computed(str(codim.tau1_codim_cap)),
            "tau2": computed(str(codim.tau2_codim_cap)),
            "rank_bound_quarter": computed(_num(codim.rank_bound_quarter,
                                                dig)),
            "rank_bound_third": computed(_num(codim.rank_bound_third, dig)),
        }
    inputs = {"p": args.p, "n": args.n, "r": args.r}
    if dig is not None:
        inputs["digits"] = dig
    _emit(_document("classify", inputs, results, [], args.deterministic),
          args.pretty)
    return 0


# --- argument parsing ------------------------------------------------------

_COMMON = [
    ("--pretty", {"action": "store_true",
                  "help": "human-readable rendering instead of JSON"}),
    ("--deterministic", {"action": "store_true",
                         "help": "suppress the timestamp field"}),
    ("--digits", {"type": int, "default": None,
                  "help": "decimal digits of working precision "
                          "(beats QB_PRECISION)"}),
]
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}

# subcommand -> (help, handler, its arguments as (name, add_argument
# keywords)); every subcommand also takes the _COMMON flags
_COMMANDS = {
    "eval": ("evaluate one special function", cmd_eval, [
        ("function", {"choices": list(_EVAL)}), ("--q", _INT),
        ("--x", {"type": float}), ("--delta", {"type": float}),
        ("--n", _INT), ("--e", _INT), ("--k", _INT)]),
    "bound": ("rate or rank bound with term breakdown", cmd_bound, [
        ("--q", _INT),
        ("--p", {"type": int, "help": "alias for --q (rank form)"}),
        ("--n", _REQUIRED_INT), ("--d", _INT), ("--delta", {"type": float}),
        ("--form", {"choices": ["finite", "continuous", "rank"],
                    "default": "finite"})]),
    "tables": ("re-derive the published tables", cmd_tables, [
        ("--which", {"choices": ["constants", "candn0", "Np", "anchor"],
                     "required": True}),
        ("--primes", {"type": int, "nargs": "*", "default": None}),
        ("--format", {"choices": ["json", "csv"], "default": "json"})]),
    "verify": ("run a verification suite", cmd_verify, [
        ("--suite", {"choices": ["all"] + list(SUITES), "default": "all"}),
        ("--seed", {"type": int, "default": 0})]),
    "oracle": ("exact A_q(n, d) by exhaustive search", cmd_oracle, [
        ("--q", _REQUIRED_INT), ("--n", _REQUIRED_INT),
        ("--d", _REQUIRED_INT),
        ("--time-limit", {"type": float, "default": 60.0})]),
    "classify": ("rank classification report", cmd_classify, [
        ("--p", _REQUIRED_INT), ("--n", _REQUIRED_INT),
        ("--r", _REQUIRED_INT)]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="qbounds",
        description="Finite-length Elias-Bassalygo bounds for q-ary codes "
                    "and their symmetry-rank consequences.")
    parser.add_argument("--version", action="version", version=__version__)
    # with one subparser, the metavar keeps every name in the usage line
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _COMMON:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a request builds only its subcommand's parser; help and usage errors
    # that name no subcommand get the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _digits(args)  # every subcommand takes --digits; reject bad values
        return args.func(args)
    except (DomainError, PreconditionError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: end as SIGPIPE would, and let devnull
        # take the unwritten rest so the flush at exit cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 141


if __name__ == "__main__":
    sys.exit(main())
