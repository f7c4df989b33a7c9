"""oracle-fixed: exact A_q(n, d) on a fixed instance list, plus seeded
lemma checks.

Every instance has its true A pinned and a time limit far above its
runtime, so the wall clock never decides a result; a ResourceBudgetError
is a budget hit and fails the operation.  The instances fall into four
classes by where ``max_code_size`` spends its time:

- adjacency: large candidate sets, almost all time in the adjacency build;
- search: small candidate sets, almost all time in the clique search;
- deep: a clique of depth 511 (A_2(10, 2) = 512);
- small: instances solved in milliseconds.

The lemma checks call ``pigeonhole_suite`` and ``johnson_suite`` with
``trials=1`` and a fresh seed per call, so each call checks one seeded
random code over the whole space; these calls are the workload's ops.

Checks: the pinned A is returned, and the witness has that many distinct
words with minimum distance >= d, computed here with numpy rather than
through ``qbounds.min_distance``; each lemma report passes.

Left out: A_2(11, 2) = 1024, whose search ends in a RecursionError after
about 24 s (a known defect).
"""

import math

import numpy as np

import qbounds as Q
from qbounds.errors import ResourceBudgetError

from harness import Op

TIME_LIMIT_S = 600.0

# (class, q, n, d, A_q(n, d))
INSTANCES = (
    ("adjacency", 4, 8, 8, 4),
    ("adjacency", 3, 10, 9, 3),
    ("adjacency", 2, 19, 15, 2),
    ("adjacency", 5, 6, 6, 5),
    ("search", 2, 12, 7, 4),
    ("search", 4, 5, 4, 16),
    ("deep", 2, 10, 2, 512),
    ("small", 3, 4, 3, 9),
    ("small", 2, 8, 4, 16),
    ("small", 2, 7, 3, 16),
    ("small", 4, 4, 3, 16),
)
LEMMA_CODES_PER_SUITE = 2000

SETUP = """
import qbounds as Q
Q.max_code_size(3, 4, 3)
Q.pigeonhole_suite(trials=1)
Q.johnson_suite(trials=1)
"""


def candidates(q, n, d):
    """Size of the candidate set: words of weight >= d, the zero word being
    fixed in every witness."""
    return sum(math.comb(n, w) * (q - 1) ** w for w in range(d, n + 1))


def witness_min_distance(words: np.ndarray) -> int:
    best = words.shape[1]
    for i in range(len(words) - 1):
        best = min(best, int((words[i + 1:] != words[i]).sum(axis=1).min()))
    return best


def _instance_check(rec, q, n, d, want):
    def check(res, exc):
        if isinstance(exc, ResourceBudgetError):
            rec.count("budget_hits")
            return f"budget hit: {exc}"
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        size, code = res
        if size != want:
            return f"A_{q}({n},{d}) = {size}, expected {want}"
        words = np.array(code.words, dtype=np.int64).reshape(-1, n)
        if len(words) != want or len({tuple(w) for w in words.tolist()}) != want:
            return f"witness has {len(words)} words, expected {want} distinct"
        if not ((0 <= words) & (words < q)).all():
            return "witness has symbols outside the alphabet"
        if want >= 2 and witness_min_distance(words) < d:
            return f"witness minimum distance below {d}"
        return None
    return check


def _lemma_check(res, exc):
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if not res.passed or res.instances_checked != 1:
        return f"{res.suite} failed: {res.counterexample}"
    return None


def make_pass(rng, rec, instances=INSTANCES, lemma_codes=LEMMA_CODES_PER_SUITE):
    """The instance list in fixed order, with the seeded lemma codes spread
    evenly between the instances, so that they are timed across the whole
    pass rather than in one stretch of it."""
    ops = []
    for cls, q, n, d, want in instances:
        rec.count("candidates", candidates(q, n, d))
        ops.append(Op(f"max_code_size.{cls}", f"oracle.max_code_size.{cls}",
                      lambda q, n, d: Q.max_code_size(q, n, d,
                                                      time_limit=TIME_LIMIT_S),
                      (q, n, d), _instance_check(rec, q, n, d, want),
                      unit=False))
    lemma = []
    for suite, fn in (("pigeonhole_suite", Q.pigeonhole_suite),
                      ("johnson_suite", Q.johnson_suite)):
        for _ in range(lemma_codes):
            q_set = (rng.choice((2, 3)),)
            seed = rng.randrange(2 ** 30)
            lemma.append(Op(suite, f"oracle.{suite}",
                            lambda fn, q_set, seed: fn(q_set=q_set, trials=1,
                                                       seed=seed),
                            (fn, q_set, seed), _lemma_check))
    rng.shuffle(lemma)
    chunk = -(-len(lemma) // len(ops))
    return [op for i, inst in enumerate(ops)
            for op in (inst, *lemma[i * chunk:(i + 1) * chunk])]


def per_layer(rec, tracer, passes):
    times = tracer.self_times()
    per_class = {
        f"oracle.max_code_size.{cls}_s":
            times.get(f"oracle.max_code_size.{cls}", (0, 0))[1] / passes / 1e9
        for cls in ("adjacency", "search", "deep", "small")}
    return {
        **per_class,
        "oracle.candidates": rec.counters.get("candidates", 0) / passes,
        "oracle.budget_hits": rec.counters.get("budget_hits", 0),
    }
