"""qbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics, and
the spans are written to ``.perfbench/``.  The line before it is a fuller
report: the environment, per-operation outcomes and the known defects.
See perfbench/README.md for what each metric means on each workload.
"""

import argparse
import json
import os
import random
import sys
import time

import harness
from harness import OUT_DIR, SRC, Recorder, Tracer, median, tail

WORKLOADS = ("scalar-grid.float64", "scalar-grid.mp50", "table-scans",
             "oracle-fixed", "cli-mix")
SETUP_REPS = 9
STARTUP_REPS = 3

END_TO_END = ("setup_s", "pass_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
              "peak_rss_mb")
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics.  A name ending in _us, _ms or _s is the mean self time
# of the span named by the rest, unless the workload reports it itself; the
# others are counts the workloads report.  A metric a workload does not
# exercise reads 0.
PER_LAYER = (
    "qcore.entropy.float_us", "qcore.entropy.mp50_us",
    "qcore.johnson_radius.float_us", "qcore.johnson_radius.mp50_us",
    "qcore.stirling_bounds.float_us", "qcore.stirling_bounds.mp50_us",
    "qcore.hamming_ball_volume_us",
    "eb_bounds.eb_rate_bound_us", "eb_bounds.eb_rate_bound_continuous_us",
    "eb_bounds.rank_bound.float_us", "eb_bounds.rank_bound.mp50_us",
    "eb_bounds.domain_rejects",
    "geometry.threshold_F.float_us", "geometry.threshold_F.mp50_us",
    "geometry.classify_rank_us", "geometry.codim_guarantees_us",
    "geometry.derive_c_n0_ms", "geometry.derive_N_ms",
    "geometry.anchor_scan_ms", "geometry.envelope_check_ms",
    "geometry.f1_monotonicity_scan_ms",
    "geometry.scan_points", "geometry.scan_ns_per_point",
    "precision.escalations",
    "oracle.max_code_size.adjacency_s", "oracle.max_code_size.search_s",
    "oracle.max_code_size.deep_s", "oracle.max_code_size.small_s",
    "oracle.candidates", "oracle.budget_hits",
    "oracle.pigeonhole_suite_ms", "oracle.johnson_suite_ms",
    "cli.python_startup_s", "cli.import_s",
    "cli.eval_s", "cli.bound_s", "cli.classify_s", "cli.tables_s",
    "cli.verify_s", "cli.oracle_s", "cli.reject_s",
    "trace.overhead_pct", "trace.spans",
)
_TIME_SUFFIX = (("_us", 1e3), ("_ms", 1e6), ("_s", 1e9))


def _unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%"),
                         ("_per_point", "ns"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class Workload:
    """Binds one workload module to a seed.  ``make(rng, rec, small)``
    builds one pass; ``small`` asks for the reduced pass used to warm up."""

    def __init__(self, name, seed):
        self.rng = random.Random(seed)
        self.warm_rng = random.Random(-1 - seed)
        if name.startswith("scalar-grid."):
            import wl_scalar as mod
            precision = name.split(".", 1)[1]
            self.make = lambda rng, rec, small: mod.make_pass(
                rng, precision, points=2 if small else mod.POINTS_PER_FUNCTION)
        elif name == "table-scans":
            import wl_tables as mod
            self.make = lambda rng, rec, small: mod.make_pass(
                rng, rec, primes=mod.PRIMES[:1] if small else mod.PRIMES)
        elif name == "oracle-fixed":
            import wl_oracle as mod
            self.make = lambda rng, rec, small: mod.make_pass(
                rng, rec,
                instances=[i for i in mod.INSTANCES if i[0] == "small"]
                if small else mod.INSTANCES,
                lemma_codes=10 if small else mod.LEMMA_CODES_PER_SUITE)
        elif name == "cli-mix":
            import wl_cli as mod
            import wl_tables
            paper_n0 = wl_tables.paper_constants()["n0"]
            self.make = lambda rng, rec, small: mod.make_pass(
                rng, paper_n0)[:1 if small else None]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.mod = mod
        self.in_process = name != "cli-mix"

    def warm(self):
        """One reduced pass with inputs of its own: the lazy work of the
        first calls is done before timing (setup_s measures it apart)."""
        harness.run_pass(self.make(self.warm_rng, Recorder(), True),
                         Recorder(), None)

    def segment(self, seconds, tracer=None) -> Recorder:
        rec = Recorder()
        return harness.run_segment(lambda i: self.make(self.rng, rec, False),
                                   seconds, tracer, rec)


def end_to_end(wl, rec, setup, scaled=True) -> dict:
    """The end-to-end metrics, from the scaled latencies or, with
    ``scaled=False``, from the raw ones."""
    unit_ns = rec.unit_ns if scaled else rec.raw_unit_ns
    pass_ns = rec.pass_ns if scaled else rec.raw_pass_ns
    tail_ns, _ = tail(unit_ns)
    values = {
        "setup_s": setup[0 if scaled else 1],
        "pass_s": median(pass_ns) / 1e9,
        "ops_per_s": len(unit_ns) / (sum(unit_ns) / 1e9),
        "op_p50_ms": median(unit_ns) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "peak_rss_mb": harness.peak_rss_mb(children=not wl.in_process),
    }
    return {m: {"value": values[m], "unit": END_TO_END_UNITS[m]} for m in END_TO_END}


def _startup_spans(tracer):
    """cli.python_startup (a bare interpreter) and cli.import (the import of
    qbounds alone, timed inside a fresh interpreter) as spans."""
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter_ns()
        harness.run_child(["-c", "pass"])
        tracer.record("cli.python_startup", t0, time.perf_counter_ns())
        _, proc = harness.run_child(
            ["-c", "import time; t = time.perf_counter_ns(); import qbounds; "
                   "print(time.perf_counter_ns() - t)"])
        t0 = time.perf_counter_ns()
        tracer.record("cli.import", t0, t0 + int(proc.stdout))


def per_layer(wl, untraced, traced, tracer) -> dict:
    """Per-layer metrics from the traced segment's spans and counters; times
    are scaled by that segment's machine-speed scale."""
    passes = len(traced.pass_ns)
    k = traced.speed.overall()
    times = tracer.self_times()
    values = {}
    for name in PER_LAYER:
        for suffix, unit_ns in _TIME_SUFFIX:
            if name.endswith(suffix):
                count, ns = times.get(name[: -len(suffix)], (0, 0))
                values[name] = ns * k / count / unit_ns if count else 0.0
                break
        else:
            values[name] = 0
    for name, value in wl.mod.per_layer(traced, tracer, passes).items():
        values[name] = value * k if name.endswith(("_s", "_per_point")) else value
    rate_untraced = len(untraced.unit_ns) / sum(untraced.unit_ns)
    rate_traced = len(traced.unit_ns) / sum(traced.unit_ns)
    values["trace.overhead_pct"] = 100.0 * (rate_untraced / rate_traced - 1.0)
    values["trace.spans"] = len(tracer)
    return {m: {"value": values[m], "unit": _unit(m)} for m in PER_LAYER}


def op_report(*recs) -> dict:
    """Outcomes per operation name, summed over ``recs``."""
    out = {}
    for rec in recs:
        for name, s in rec.ops.items():
            row = out.setdefault(name, {"attempted": 0, "failed": 0, "examples": []})
            row["attempted"] += s.attempted
            row["failed"] += s.failed
            row["examples"] += s.examples
    return dict(sorted(out.items()))


def run(workload, seed, seconds, trace) -> tuple[dict, dict]:
    wl = Workload(workload, seed)
    report = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": harness.environment(seed)}
    wl.warm()
    if trace:
        untraced = wl.segment(seconds / 2)
        tracer = Tracer()
        traced = wl.segment(seconds / 2, tracer)
        _startup_spans(tracer)
        metrics = per_layer(wl, untraced, traced, tracer)
        recs = (untraced, traced)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        tracer.write_csv(spans_path)
        report["spans_file"] = str(spans_path.relative_to(harness.ROOT))
    else:
        setup = harness.measure_setup(wl.mod.SETUP, SETUP_REPS)
        rec = wl.segment(seconds)
        metrics = end_to_end(wl, rec, setup)
        recs = (rec,)
        report["speed_scale"] = rec.speed.overall()
        report["raw_metrics"] = end_to_end(wl, rec, setup, scaled=False)
        report["passes"] = len(rec.pass_ns)
        report["ops"] = len(rec.unit_ns)
        report["tail_percentile"] = tail(rec.unit_ns)[1]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    report["operations"] = op_report(*recs)
    report["error_rate"] = failed / attempted
    correct = failed == 0
    if workload == "cli-mix":
        defects = wl.mod.probe_known_defects()
        report["known_defects"] = defects
        report["known_defects_present"] = sum(
            d["status"] == "present" for d in defects.values())
    report["metrics"] = metrics
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qbounds" / "__init__.py").is_file():
        print(f"error: no qbounds source tree at {SRC}; run from the root of "
              "a qbounds checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child it starts, so that the speed
    # reference and the work it scales run on the same CPU; and no BLAS
    # worker threads in this process (numpy starts them on import).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
