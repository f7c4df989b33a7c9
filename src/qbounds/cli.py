"""Command-line front end.

Subcommands: eval, bound, tables, verify, oracle, classify, each declared
once in the ``_COMMANDS`` table.  A request builds the parser of its own
subcommand only, and its handler imports only the library modules it uses;
help and usage errors that name no subcommand use the full parser.

A handler ``cmd_*(args, digits)`` only computes and returns ``(inputs,
results, diagnostics, status)`` with library values as they come (mpf,
Fraction, ...).  ``main`` alone echoes ``digits``, builds the document,
converts its numbers in one walk, writes it to stdout (JSON, ``--pretty`` or
``tables --format csv``) and returns the status.  stderr gets one
``error:`` line, or one line on a table mismatch.  Exit codes: 0 = success,
1 = a suite failed or a table disagrees with the published value, 2 = usage
or precondition error, 141 = the reader closed stdout.  QB_PRECISION
(decimal digits) sets the working precision; --digits beats it.  Every
integer argument goes through ``errors.check_int``, whose error names it.
"""

import argparse
import io
import json
import math
import os
import sys
import time
from numbers import Rational, Real

from . import __version__
from .errors import (DomainError, PreconditionError, QBoundsError,
                     ResourceBudgetError, check_int)
from .precision import escalation_digits
from .suites import SUITES

SCHEMA_VERSION = "1"

HOMOTOPY_NOTE = ("homotopy equivalent to S^n, RP^n, CP^{n/2}, or a lens space")


def computed(x):
    return {"value": x, "provenance": "computed"}


def paper_val(x):
    return {"value": x, "provenance": "paper-constant"}


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
    check_int(source, digits, 1)
    return digits


def _json_ready(x, digits):
    """``x`` with every number in a form JSON holds: a real (an mpf) becomes
    a float, or, when computed at ``digits`` digits and a double cannot
    hold it (it overflows, or a nonzero value underflows to zero), a
    decimal string with ``digits`` significant digits.  A Fraction, and any
    other value JSON has no type for, becomes its ``str()``.  A tuple stays
    a tuple, so ``--pretty`` prints it on one line.  An integer with more
    digits than Python converts to a string is a DomainError."""
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, int):  # bool is an int
        try:
            str(x)  # as json.dumps, --pretty and csv print it
        except ValueError:
            raise DomainError(
                f"an integer result has more than "
                f"{sys.get_int_max_str_digits()} digits, too many to print"
            ) from None
        return x
    if isinstance(x, dict):
        return {k: _json_ready(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        items = [_json_ready(v, digits) for v in x]
        return items if isinstance(x, list) else tuple(items)
    if isinstance(x, Real) and not isinstance(x, Rational):
        f = float(x)
        if digits is not None and (math.isinf(f) or (f == 0 and x != 0)):
            import mpmath
            return mpmath.nstr(x, digits)
        return f
    return str(x)


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


def cmd_eval(args, dig):
    from . import qcore
    fn_name, names = _EVAL[args.function]
    inputs = {name: getattr(args, name) for name in names}
    missing = [f"--{name}" for name, v in inputs.items() if v is None]
    if missing:
        raise DomainError(f"eval {args.function} requires {', '.join(missing)}")
    fn = getattr(qcore, fn_name)
    value = (fn(*inputs.values()) if fn is qcore.hamming_ball_volume  # exact
             else fn(*inputs.values(), digits=dig))
    if args.function == "stirling":
        results = {"lower": computed(value[0]), "upper": computed(value[1])}
    else:
        results = {"value": computed(value)}
    return inputs, results, [], 0


def cmd_bound(args, dig):
    from .eb_bounds import (BoundParams, eb_rate_bound,
                            eb_rate_bound_continuous, rank_bound)
    if args.q is not None and args.p is not None:
        raise DomainError("--p is an alias for --q: give one of them")
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
        results = {"r_upper": computed(res.r_upper)}
    else:
        fn = eb_rate_bound if args.form == "finite" else eb_rate_bound_continuous
        res = fn(params, digits=dig)
        results = {"rate_upper": computed(res.rate_upper),
                   "e": computed(res.e)}
    results["terms"] = [{"label": lab, **computed(val)}
                        for lab, val in res.terms]
    return inputs, results, [], 0


def _tables_rows(which, primes, dig, diagnostics):
    from .geometry import constants, derive_c_n0, derive_N, paper_tables
    rows = []
    if which == "constants":  # computed only: no published value is read
        for p in primes:
            k = constants(p, dig)
            rows.append({"p": p, **{f: computed(getattr(k, f))
                                    for f in ("f1", "f2", "f3", "f4", "f5")}})
        return rows, False
    paper = paper_tables()
    mismatch = False

    def note(p, escalations):
        if escalations:
            diagnostics.append(
                ["info", f"p={p}: {escalations} comparisons "
                         f"escalated to {escalation_digits(dig)} digits"])

    if which == "candn0":
        for p in primes:
            derived = derive_c_n0(p, dig)
            note(p, derived.escalations)
            match = derived.n0 == paper["n0"][p]
            mismatch |= not match
            rows.append({"p": p, "c": paper_val(paper["c"][p]),
                         "n0_paper": paper_val(paper["n0"][p]),
                         "n0_recomputed": computed(derived.n0),
                         "match": match})
    else:  # Np or anchor, both read from the N scan
        for p in primes:
            derived, N = derive_N(p, dig), paper["N"][p]
            note(p, derived.escalations)
            if which == "Np":
                match = derived.N == N
                rows.append({"p": p, "N_paper": paper_val(N),
                             "N_recomputed": computed(derived.N),
                             "first_failure": computed(derived.first_failure),
                             "match": match})
            else:  # F > baseline_rank on [16, N] iff it first fails past N
                match = derived.first_failure > N
                rows.append({"p": p, "N_paper": paper_val(N), "scanned":
                             computed(min(N, derived.first_failure) - 15),
                             "anchor_holds": match})
            mismatch |= not match
    return rows, mismatch


def _rows_to_csv(rows):
    """The table rows as CSV, a {value, provenance} cell as its value."""
    import csv
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows({k: v["value"] if isinstance(v, dict) else v
                      for k, v in row.items()} for row in rows)
    return buf.getvalue()


def cmd_tables(args, dig):
    from .geometry import SUPPORTED_PRIMES
    primes = tuple(args.primes) if args.primes else SUPPORTED_PRIMES
    for p in primes:
        if p not in SUPPORTED_PRIMES:
            raise DomainError(f"prime {p} is not in the supported set "
                              f"{SUPPORTED_PRIMES}")
    diagnostics = []
    rows, mismatch = _tables_rows(args.which, primes, dig, diagnostics)
    if mismatch:
        print("table mismatch against published values", file=sys.stderr)
    inputs = {"which": args.which, "primes": list(primes), "format": args.format}
    return inputs, {"rows": rows}, diagnostics, int(mismatch)


def cmd_verify(args, dig):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name](args.seed, dig) for name in names]
    results = [{"suite": rep.suite,
                "instances_checked": computed(rep.instances_checked),
                "passed": rep.passed, "counterexample": rep.counterexample,
                "payload": rep.payload} for rep in reports]
    return ({"suite": args.suite, "seed": args.seed}, {"reports": results},
            [], 0 if all(rep.passed for rep in reports) else 1)


def cmd_oracle(args, dig):
    from .eb_bounds import _rate_check
    from .oracle import max_code_size, serialize_code, upper_bound
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
        rate, bound, holds = _rate_check(args.q, args.n, args.d, size, dig)
        results.update(rate=computed(rate), eb_rate_bound=computed(bound),
                       sound=holds)
    except (DomainError, PreconditionError) as exc:
        diagnostics.append(["info", f"bound comparison skipped: {exc}"])
    return {"q": args.q, "n": args.n, "d": args.d}, results, diagnostics, 0


def cmd_classify(args, dig):
    from .geometry import classify_rank, codim_guarantees
    report = classify_rank(args.p, args.n, args.r, dig)
    results = {
        "classification": report.classification.value,
        "F_value": computed(report.F_value),
        "baseline": computed(report.baseline),
        "max_rank": computed(report.max_rank),
    }
    if report.classification.value in ("MAIN_THEOREM", "BASELINE",
                                       "MAX_RANK_ONLY"):
        results["conclusion"] = HOMOTOPY_NOTE
    if report.classification.value == "MAIN_THEOREM":
        codim = codim_guarantees(args.p, args.n, args.r, dig)
        results["codim_caps"] = {
            "tau1": computed(codim.tau1_codim_cap),
            "tau2": computed(codim.tau2_codim_cap),
            "rank_bound_quarter": computed(codim.rank_bound_quarter),
            "rank_bound_third": computed(codim.rank_bound_third),
        }
    return {"p": args.p, "n": args.n, "r": args.r}, results, [], 0


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
        digits = _digits(args)
        inputs, results, diagnostics, status = args.func(args, digits)
        if digits is not None:
            inputs["digits"] = digits
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "inputs": inputs, "results": results,
               "diagnostics": diagnostics}
        if not args.deterministic:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        doc = _json_ready(doc, digits)
        try:  # also checks what --pretty and csv render
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # inf or nan: not a JSON number
            raise DomainError("a result is not a finite double; if float64 "
                              "overflowed, retry with --digits") from None
        if getattr(args, "format", None) == "csv":
            sys.stdout.write(_rows_to_csv(doc["results"]["rows"]))
        else:
            print(_render_pretty(doc) if args.pretty else text)
        return status
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
