"""Shared machinery of the qbounds benchmark: timed operations, output
checks, spans, statistics, set-up measurement, machine speed and the run
environment.

An operation (``Op``) is one call into a qbounds layer made from outside
the library.  Its latency is the interval around that call alone; the
output check runs after the interval closes, so checking never counts as
library time.  When tracing is on, the span of an operation reuses the
same two timestamps, which keeps the traced latencies comparable with the
untraced ones.

Machine speed: on shared 2-vCPU hosts the speed of the same code drifts
by about +-20% within seconds, more than any bound worth setting.  So the
benchmark times a fixed reference computation between operations
(``Speed``) and scales each operation's latency to a machine on which the
reference takes ``REF_NOMINAL_NS``.  The raw, unscaled figures are kept
in the report line.
"""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120

# The nine primes with published tables in paper_constants.json.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)

# The environment as the benchmark found it: children get this one, not
# the single-threaded BLAS settings the benchmark process runs under.
USER_ENV = dict(os.environ)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REF_NOMINAL_NS = 1_000_000  # about the reference's typical time where it was tuned
SPEED_EVERY_NS = 25_000_000
SPEED_WINDOW_NS = 1_000_000_000
SPEED_MIN_SAMPLES = 5


def _reference_loop():
    s = 0
    for i in range(15_000):
        s += i * i
    return s


class Speed:
    """Machine speed, from timings of a fixed reference loop.

    The host's speed changes over seconds, and at times flips by 20%
    between one millisecond and the next.  So an operation is scaled by
    the speed measured around it: ``now()`` returns the median of the
    samples of the last SPEED_WINDOW_NS, first taking a new sample if the
    newest is older than SPEED_EVERY_NS, and more until the window holds
    SPEED_MIN_SAMPLES.  Short operations share one sample per
    SPEED_EVERY_NS; an operation longer than the window gets a fresh
    median on each side."""

    def __init__(self):
        self.samples = array("q")
        self.ends = array("q")
        self._scale = 1.0
        self._fresh_until = 0

    def sample(self):
        t0 = time.perf_counter_ns()
        _reference_loop()
        t1 = time.perf_counter_ns()
        self.samples.append(t1 - t0)
        self.ends.append(t1)

    def _window(self):
        cutoff = self.ends[-1] - SPEED_WINDOW_NS
        i = len(self.ends)
        while i > 0 and self.ends[i - 1] >= cutoff:
            i -= 1
        return self.samples[i:]

    def now(self, t_ns) -> float:
        """Scale factor at time ``t_ns``: a time measured here, times this
        factor, is the time on the nominal machine."""
        if t_ns < self._fresh_until:
            return self._scale
        self.sample()
        while len(recent := self._window()) < SPEED_MIN_SAMPLES:
            self.sample()
        self._scale = REF_NOMINAL_NS / statistics.median(recent)
        self._fresh_until = self.ends[-1] + SPEED_EVERY_NS
        return self._scale

    def overall(self) -> float:
        if not self.samples:
            self.sample()
        return REF_NOMINAL_NS / statistics.median(self.samples)


@dataclass
class Op:
    """One call into a layer.

    ``name`` groups operations in the per-operation report; ``span`` is the
    per-layer span name.  ``check(result, exc)`` returns None when the
    output is correct and a one-line reason otherwise; ``exc`` is the
    exception the call raised, if any.  ``unit`` marks the operations that
    the ops_* metrics describe.
    """

    name: str
    span: str
    fn: Callable
    args: tuple
    check: Callable[[Any, BaseException | None], str | None]
    unit: bool = True


@dataclass
class OpStats:
    attempted: int = 0
    failed: int = 0
    examples: list = field(default_factory=list)


class Tracer:
    """In-memory spans: name, start, end, parent and request id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")

    def record(self, name, start_ns, end_ns, parent=-1, request=-1) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        self.name_of.append(idx)
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    def open(self, name) -> int:
        """Start a root span whose end is set later by ``close``."""
        now = time.perf_counter_ns()
        return self.record(name, now, now)

    def close(self, span_id):
        self.end[span_id] = time.perf_counter_ns()

    def __len__(self):
        return len(self.start)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (count, total self time in ns), where self time is
        a span's duration minus the durations of its direct children."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, list[int]] = {}
        for i, idx in enumerate(self.name_of):
            agg = out.setdefault(self.names[idx], [0, 0])
            agg[0] += 1
            agg[1] += self.end[i] - self.start[i] - child_ns[i]
        return {k: (c, t) for k, (c, t) in out.items()}

    def write_csv(self, path: Path):
        """One line per span: id,name,start_ns,end_ns,parent,request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.request[i]}\n")


class Recorder:
    """Latencies, pass times and per-operation outcomes of one segment."""

    def __init__(self):
        self.unit_ns = array("d")
        self.pass_ns = array("d")
        self.raw_unit_ns = array("q")
        self.raw_pass_ns = array("q")
        self.ops: dict[str, OpStats] = {}
        self.counters: dict[str, float] = {}
        self.speed = Speed()

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    @property
    def attempted(self):
        return sum(s.attempted for s in self.ops.values())

    @property
    def failed(self):
        return sum(s.failed for s in self.ops.values())


def run_pass(ops, rec: Recorder, tracer: Tracer | None, request_base=0):
    """Time every operation of one pass, check its output, and record both
    the raw latency and the latency scaled to the nominal machine."""
    pass_span = tracer.open("bench.pass") if tracer is not None else -1
    total = raw_total = 0
    perf = time.perf_counter_ns
    speed = rec.speed
    for i, op in enumerate(ops):
        exc = None
        result = None
        before = speed.now(perf())
        t0 = perf()
        try:
            result = op.fn(*op.args)
        except Exception as e:  # judged by the check below, never fatal
            exc = e
        t1 = perf()
        dt = t1 - t0
        scaled = dt * (before + speed.now(t1)) / 2
        total += scaled
        raw_total += dt
        if op.unit:
            rec.unit_ns.append(scaled)
            rec.raw_unit_ns.append(dt)
        if tracer is not None:
            tracer.record(op.span, t0, t1, pass_span, request_base + i)
        stats = rec.ops.get(op.name)
        if stats is None:
            stats = rec.ops[op.name] = OpStats()
        stats.attempted += 1
        try:
            reason = op.check(result, exc)
        except Exception as e:  # a malformed output must not abort the run
            reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            stats.failed += 1
            if len(stats.examples) < 3:
                stats.examples.append(reason)
    if tracer is not None:
        tracer.close(pass_span)
    rec.pass_ns.append(total)
    rec.raw_pass_ns.append(raw_total)


def run_segment(make_pass, seconds, tracer, rec: Recorder) -> Recorder:
    """Run whole passes for about ``seconds``: a pass starts only when the
    previous one suggests it will end in time, and at least one runs.
    ``make_pass(i)`` builds pass i untimed, before it runs."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    request_base = 0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        ops = make_pass(i)
        run_pass(ops, rec, tracer, request_base)
        request_base += len(ops)
        last = time.perf_counter() - t
        i += 1
    return rec


def expect_raises(*types):
    """Check for an out-of-domain call: it must raise one of ``types``."""
    names = "/".join(t.__name__ for t in types)

    def check(result, exc):
        if exc is None:
            return f"expected {names}, returned {result!r}"
        if not isinstance(exc, types):
            return f"expected {names}, raised {type(exc).__name__}: {exc}"
        return None
    return check


def agree(a, b, rel=1e-11, abs_=1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# --- statistics ---------------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def tail(xs):
    """The highest percentile with at least ten samples beyond it, capped
    at the 95th, as (value, percentile).  Needs at least eleven samples.
    The cap keeps rare host events, and the single slowest kind of
    operation in a mix, from setting the tail of runs with thousands of
    samples."""
    if len(xs) < 11:
        raise ValueError(f"tail needs at least 11 samples, got {len(xs)}")
    s = sorted(xs)
    k = len(s) - 1 - max(10, len(s) // 20)
    return s[k], 100.0 * (k + 1) / len(s)


# --- child processes ------------------------------------------------------------

def child_env():
    env = dict(USER_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a Python child to completion; returns (wall_s, CompletedProcess).
    ``subprocess.run`` kills and reaps the child if it overruns."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - t, proc


def measure_setup(code: str, reps: int = 5) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports qbounds and makes the
    first call into each layer a workload uses: the median over ``reps``
    children, scaled to the nominal machine, and the raw median."""
    scaled, raw = [], []
    speed = Speed()
    for _ in range(reps):
        before = speed.now(time.perf_counter_ns())
        wall, proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        raw.append(wall)
        scaled.append(wall * (before + speed.now(time.perf_counter_ns())) / 2)
    return median(scaled), median(raw)


def peak_rss_mb(children=False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def environment(seed) -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "seed": seed,
    }
