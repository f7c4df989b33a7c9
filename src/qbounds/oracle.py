"""Ground truth at desk scale: explicit q-ary codes, exact extremal code
sizes A_q(n, d) by pruned exhaustive clique search, and exhaustive checks
of the pigeonhole and Johnson ball-counting lemmas.

Words are tuples of symbols in {0, ..., q-1}.  The whole-space budget is
q^n <= ``SPACE_BUDGET`` = 10^6; ``max_code_size`` decides d <= 2 in closed
form, and for d >= 3 takes at most ``MAX_CANDIDATES`` = 8192 words of weight
>= d and ``MAX_WORK`` units of search.  Larger instances raise
ResourceBudgetError, before any word is built for the space and candidate
caps; the wall clock is a safety net.

The search runs on Python-int bitsets, and half-word tables build them
without numpy: ``_candidates`` joins the prefixes and suffixes of the
words, grouped by their distances to the halves of the two fixed words,
and ``_conflicts`` ORs, per candidate, the bitsets of the candidates whose
prefix and suffix lie near its own: the rows the search colours and
branches on.  A witness's distance is set by construction, so the
``oracle`` command never imports numpy; only symbol arrays need it.

One blocked Hamming-distance kernel, ``_distance_blocks(a, b)``, serves
``Code.min_distance`` and the lemma checks' ball counts at radii
0 < e < n: a block is one broadcast comparison of the contiguous columns
of a few rows of ``a`` with those of ``b`` (the long axis, innermost),
summed over the coordinates into distances of one byte while n < 256, at
most ``BLOCK_PAIRS`` = 2^20 symbol pairs a block.  A
code keeps its words as a read-only symbol array, built once
(``random_code`` stores the one it decodes), so no check rebuilds it.
The lemma checks decide radii 0 and n in closed form, computing no
distance, and cache each space of at most ``LEMMA_CACHE_WORDS`` words
read-only; ``Code.min_distance`` stops at the first block that holds a
distance 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .eb_bounds import BoundParams, _eb_inputs, _rate_check
from .errors import (DomainError, PreconditionError, ResourceBudgetError,
                     check_int)
from .qcore import (BALL_VOLUME_BITS, _check_delta, _johnson_ceil,
                    hamming_ball_volume)
from .report import VerificationReport, first_failure

SPACE_BUDGET = 10 ** 6
MAX_CANDIDATES = 8192
# each colouring frame adds |cand| ceil((max cand + 1) / 64) units, its cost
# in 64-bit word operations up to a small factor: spending the cap takes
# 0.03 s (A_5(5, 3)) to 0.3 s (A_2(8, 3)).  A_3(5, 3) needs 1,955,260 and
# A_5(4, 3) 125,532,664; any cap between solves the same criterion-06 set
MAX_WORK = 2_000_000
LEMMA_CACHE_WORDS = 1 << 16  # larger lemma spaces are built per call
LEMMA_N_MAX = 7  # the lemma suites draw word lengths up to it
BLOCK_PAIRS = 1 << 20  # symbol pairs compared by one distance block


class _CodeFields(NamedTuple):
    q: int
    n: int
    words: tuple


class Code(_CodeFields):
    """An explicit set of length-n words over a q-letter alphabet.

    Words are stored sorted and deduplicated.  The minimum distance and
    the words as a read-only symbol array are computed once, by
    ``min_distance`` and ``_words_array``, and cached on the code outside
    its fields, so equality, ``repr`` and ``_replace`` ignore them.
    """

    _min_distance: int | None = None
    _array = None

    @property
    def size(self) -> int:
        return len(self.words)

    def min_distance(self) -> int:
        """Exact minimum pairwise Hamming distance; cached on the code."""
        if self.size < 2:
            raise DomainError("minimum distance undefined for |C| < 2")
        if self._min_distance is None:
            # Singleton bound |C| <= q^(n-d+1): a larger code has distance 1
            best = 1 if self.size > self.q ** (self.n - 1) else self.n
            if best > 1:
                import numpy as np
                arr = _words_array(self)
                for lo, dist in _distance_blocks(arr, arr):
                    # a word's distance to itself, D[i, lo + i], is no pair
                    np.fill_diagonal(dist[:, lo:], self.n)
                    best = min(best, int(dist.min()))
                    if best == 1:
                        break
            self._min_distance = best
        return self._min_distance


def make_code(q: int, n: int, words) -> Code:
    BoundParams(q, n, 1)  # checks q and n
    normalized = sorted({tuple(map(int, w)) for w in words})
    for w in normalized:
        if len(w) != n:
            raise DomainError(f"word {w} has length {len(w)}, expected {n}")
        if min(w) < 0 or max(w) >= q:
            raise DomainError(f"word {w} has symbols outside 0..{q - 1}")
    return Code(q=q, n=n, words=tuple(normalized))


def _symbol_dtype(q: int):
    """uint8 while q <= 256, else the narrowest unsigned type that holds
    q - 1 (the test is cheaper than ``min_scalar_type`` on the hot path)."""
    import numpy as np
    return np.uint8 if q <= 256 else np.min_scalar_type(q - 1)


def _words_array(code: Code):
    """The words as a read-only (size, n) array of ``_symbol_dtype(q)``,
    built once and cached on the code."""
    if code._array is None:
        import numpy as np
        code._array = np.array(code.words, dtype=_symbol_dtype(code.q)
                               ).reshape(code.size, code.n)
        code._array.flags.writeable = False
    return code._array


def _space_size(q: int, n: int, budget: int = SPACE_BUDGET) -> int:
    """q^n, or ResourceBudgetError naming q and n when it exceeds
    ``budget``; as q^n >= 2^n, an n >= budget.bit_length() is over it and
    no large power is formed."""
    total = q ** n if n < budget.bit_length() else budget + 1
    if total > budget:
        raise ResourceBudgetError(f"q^n = {q}^{n} exceeds budget {budget}")
    return total


def all_words_array(q: int, n: int):
    """All q^n words as a (q^n, n) array of ``_symbol_dtype(q)`` in
    lexicographic order."""
    total = _space_size(q, n)
    import numpy as np
    return np.indices((q,) * n, dtype=_symbol_dtype(q)).reshape(n, total).T


def _distance_blocks(a, b):
    """Yield ``(lo, D)`` over blocks of rows of ``a``: ``D[i, j]`` is the
    Hamming distance of ``a[lo + i]`` and ``b[j]``, in the narrowest
    unsigned type that holds n (uint8 while n < 256).  A block is one
    broadcast comparison of the columns of its rows with those of ``b``,
    at most ``BLOCK_PAIRS`` symbol pairs (one row at least), summed over
    the coordinates.  Pass the longer operand as ``b``: its axis is the
    innermost."""
    import numpy as np
    rows = max(1, min(len(a), BLOCK_PAIRS // max(b.size, 1)))
    dtype = np.min_scalar_type(a.shape[1])
    a_cols, b_cols = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    # one boolean buffer serves every block; a fresh one per block was slower
    ne = np.empty((len(a_cols), rows, len(b)), dtype=bool)
    for lo in range(0, len(a), rows):
        out = ne[:, :len(a) - lo]
        np.not_equal(a_cols[:, lo:lo + rows, None], b_cols[:, None, :], out=out)
        yield lo, out.view(np.uint8).sum(axis=0, dtype=dtype)


# --- maximum code size via branch-and-bound clique search ----------------

class UpperBound(NamedTuple):
    value: int
    by: str  # "singleton" or "sphere-packing"


def upper_bound(q: int, n: int, d: int) -> UpperBound:
    """Proven A_q(n, d) <= min(q^(n-d+1), floor(q^n / V_q(n, floor((d-1)/2))))
    (Singleton and sphere packing); a tie is credited to Singleton.  A q^n
    that may exceed BALL_VOLUME_BITS bits, the ball volume's budget, is a
    ResourceBudgetError, raised before either power is formed."""
    BoundParams(q, n, d)  # checks q, n and d
    bits = n * (q - 1).bit_length() + 1
    if bits > BALL_VOLUME_BITS:
        raise ResourceBudgetError(
            f"upper bound for A_{q}({n}, {d}): q^n may need {bits} bits, "
            f"over the budget of {BALL_VOLUME_BITS}")
    singleton = q ** (n - d + 1)
    packing = q ** n // hamming_ball_volume(q, n, (d - 1) // 2)
    if singleton <= packing:
        return UpperBound(singleton, "singleton")
    return UpperBound(packing, "sphere-packing")


def _color_classes(mask: int, conflict: list[int]) -> tuple[list[int], list[int]]:
    """The candidates of ``mask`` by greedy colour class (each takes, in
    order, those in conflict with all of it) and their class numbers."""
    order, bounds, color = [], [], 0
    while mask:
        color, free = color + 1, mask
        while free:
            low = free & -free
            v = low.bit_length() - 1
            order.append(v)
            bounds.append(color)
            mask ^= low
            free &= conflict[v] ^ low  # v's conflicts, v itself excluded
    return order, bounds


def _halves(q: int, w: tuple) -> dict:
    """The q^len(w) words of length len(w) in lexicographic order, grouped
    by (weight, distance to w)."""
    groups: dict = {}
    for h in itertools.product(range(q), repeat=len(w)):
        key = len(h) - h.count(0), sum(map(operator.ne, h, w))
        groups.setdefault(key, []).append(h)
    return groups


def _candidates(q: int, n: int, d: int) -> list[tuple]:
    """The words at distance >= d from both 0 and w2 = 0^(n-d) 1^d, in
    lexicographic order.  A word's distance to either is the sum of its
    prefix's (length k = n // 2) and its suffix's, so only the q^k prefixes
    and q^(n-k) suffixes are enumerated, grouped by their distances to the
    halves of 0 and w2; each prefix group joins the suffix groups that
    bring both sums to d or more."""
    k = n // 2
    w2 = (0,) * (n - d) + (1,) * d
    pre, suf = _halves(q, w2[:k]), _halves(q, w2[k:])
    cand = [p + s for (wp, dp), ps in pre.items()
            for (ws, ds), ss in suf.items() if wp + ws >= d and dp + ds >= d
            for p in ps for s in ss]
    cand.sort()
    return cand


def _conflicts(cand: list[tuple], d: int) -> list[int]:
    """Row i as an int whose bit j is set iff cand[i], cand[j] are at
    distance < d (bit i included).

    Bitsets over the candidates: ``agree[c][s]`` holds those with symbol s
    at coordinate c.  For a half h of a word (its first k = n // 2
    coordinates, or the rest), near[t] holds the candidates whose same half
    is within distance t of h, t < d; one pass over h's coordinates builds
    it, near[t] <- near[t - 1] | (near[t] & agree) from t = d - 1 down.
    cand[i] and cand[j] are within d - 1 iff their prefixes are within a
    and their suffixes within d - 1 - a for some a, so row i is the union
    of those pairs of bitsets.  The prefix tables serve a run of rows (the
    candidates are in lexicographic order), the suffix tables are kept per
    distinct suffix."""
    if not cand:
        return []
    n = len(cand[0])
    k = n // 2
    # symbols fit a byte: q^n <= SPACE_BUDGET with n >= d >= 3 puts q <= 100;
    # int(text, 2) reads the last character as bit 0, so columns run backward
    columns = [bytes(col[::-1]) for col in zip(*cand)]
    marks = [bytes(48 + (b == s) for b in range(256))  # s -> "1", else "0"
             for s in range(max(map(max, columns)) + 1)]
    agree = [[int(col.translate(m), 2) for m in marks] for col in columns]

    def near(h: tuple, first: int) -> list[int]:
        rows = [-1] * d  # every bit set: all candidates
        for j, s in enumerate(h):
            a = agree[first + j][s]
            # rows[t] with t > j stays -1: j + 1 coordinates differ in <= t
            for t in range(min(j, d - 1), 0, -1):
                rows[t] = rows[t - 1] | (rows[t] & a)
            rows[0] &= a
        return rows

    # a prefix is within k of any other (pre[k] = -1), a suffix within n - k
    # (suf[n - k] = -1); as d <= n, no pair of the union takes both
    pairs = range(max(0, d - 1 - (n - k)), min(d - 1, k) + 1)
    suffix_tables: dict = {}
    conflict: list[int] = []
    for prefix, words in itertools.groupby(cand, lambda w: w[:k]):
        pre = near(prefix, 0)
        for w in words:
            suf = suffix_tables.get(w[k:])
            if suf is None:
                suf = suffix_tables[w[k:]] = near(w[k:], k)
            close = 0
            for a in pairs:
                close |= pre[a] & suf[d - 1 - a]
            conflict.append(close)
    return conflict


def max_code_size(q: int, n: int, d: int, *,
                  time_limit: float = 60.0) -> tuple[int, Code]:
    """Exact A_q(n, d) with an extremal witness; for d <= 2, Singleton's
    q^(n-d+1) is met by the whole space (d = 1) and by the words whose
    last symbol is the sum of the others mod q (d = 2).

    Symmetry: for d >= 3 some optimal code contains the all-zero word and
    w2 = 0^(n-d) 1^d.  Take an optimal code; while its minimum distance
    d' exceeds d, move one symbol of a word u toward its nearest
    neighbour v (set one coordinate where they differ to v's symbol):
    u-v drops to d' - 1 >= d, every other distance drops by at most one,
    so the size and the distance >= d are kept.  The result has a pair at
    distance exactly d.  Translating by the first word of the pair, then
    permuting coordinates and, in each coordinate, the symbols with 0
    fixed, maps the pair to (0, w2); all three are isometries.  The
    remaining words are a maximum clique among the candidates, the words
    at distance >= d from both 0 and w2, in the distance->=d graph.  The
    candidates and their conflict rows (distance < d) are built from word
    halves in pure Python: memory follows q^ceil(n/2) words of half length
    and, for the rows, d bitsets over the candidates per distinct suffix.
    The witness's minimum distance is d by construction (0 and w2 are at
    distance d), so serializing it computes no distance.

    Search: the incumbent is seeded with the greedy clique taken in
    candidate (lexicographic) order; a depth-first search on an explicit
    stack with greedy-colouring upper bounds, taken on the conflict rows,
    then tries to beat it.  Both stop as soon as the code meets the proven
    ``upper_bound``, so a result equal to that bound is optimal by the
    bound, and any other result by the exhausted search.  Deterministic.

    Raises DomainError when ``time_limit`` is not > 0 (NaN included, as a
    NaN deadline never passes), and ResourceBudgetError when q^n exceeds
    the space budget, the q^n - V_q(n, d - 1) words of weight >= d
    outnumber ``MAX_CANDIDATES``, the search spends ``MAX_WORK``, or the
    wall clock exceeds ``time_limit``, a safety net.
    """
    BoundParams(q, n, d)  # checks q, n and d
    if not time_limit > 0:
        raise DomainError(f"time_limit must be > 0 seconds, got {time_limit!r}")
    total = _space_size(q, n)
    if d <= 2:
        # two words that differ in one symbol differ in their sums too
        words = itertools.product(range(q), repeat=n - d + 1)
        code = Code(q, n, tuple(words if d == 1 else
                                (w + (sum(w) % q,) for w in words)))
        code._min_distance = d  # by construction
        return code.size, code

    heavy = total - hamming_ball_volume(q, n, d - 1)  # words of weight >= d
    if heavy > MAX_CANDIDATES:
        raise ResourceBudgetError(
            f"candidate set of {heavy} words exceeds cap {MAX_CANDIDATES}")
    deadline = time.monotonic() + time_limit
    cand = _candidates(q, n, d)
    conflict = _conflicts(cand, d)
    target = upper_bound(q, n, d).value - 2  # a clique this big is optimal

    best_clique, best_mask = [], 0
    for v, row in enumerate(conflict):
        if not row & best_mask:
            best_clique.append(v)
            best_mask |= 1 << v

    work = 0  # see MAX_WORK

    def frame(cand_mask: int) -> list:
        nonlocal work
        work += cand_mask.bit_count() * -(-cand_mask.bit_length() // 64)
        if work > MAX_WORK:
            raise ResourceBudgetError(f"work budget {MAX_WORK} spent")
        order, bounds = _color_classes(cand_mask, conflict)
        return [order, bounds, len(order) - 1, cand_mask]

    # each frame: [coloring order, color bounds, next index, candidate mask];
    # current[k] is the vertex chosen in frame k
    stack = [frame((1 << len(cand)) - 1)] if len(best_clique) < target else []
    current: list[int] = []
    while stack:
        order, bounds, idx, cand_mask = top = stack[-1]
        if idx < 0 or len(current) + bounds[idx] <= len(best_clique):
            stack.pop()
            del current[-1:]  # the root frame chose no vertex
            continue
        v = order[idx]
        top[2:] = idx - 1, cand_mask & ~(1 << v)
        sub = cand_mask & ~conflict[v]
        if sub:
            if time.monotonic() > deadline:
                raise ResourceBudgetError("clique search exceeded time limit")
            current.append(v)
            stack.append(frame(sub))
        elif len(current) + 1 > len(best_clique):
            best_clique = current + [v]
            if len(best_clique) == target:
                break

    witness = make_code(q, n, [(0,) * n, (0,) * (n - d) + (1,) * d]
                        + [cand[v] for v in best_clique])
    # 0 and w2 are at distance d, and the clique puts every other pair >= d
    witness._min_distance = d
    return witness.size, witness


# --- exhaustive lemma checks ---------------------------------------------

@functools.lru_cache(maxsize=16)
def _lemma_space(q: int, n: int):
    """``all_words_array(q, n)``, read-only and kept for the lemma checks."""
    space = all_words_array(q, n)
    space.flags.writeable = False
    return space


def pigeonhole_witness(code: Code, e: int) -> tuple[tuple, int]:
    """The center y maximizing |C /\\ B(y, e)| and its count.

    The count always meets the averaging bound |C| Vol_q(0, e) / q^n;
    ties are broken toward the lexicographically smallest center.  Radii
    0 and n, and the empty code, are decided in closed form; every other
    radius counts each ball through the distance kernel.
    """
    check_int("e", e, 0, code.n)
    if e == code.n or not code.words:
        return (0,) * code.n, code.size  # B(y, n) is the whole space
    if e == 0:
        return code.words[0], 1  # B(y, 0) = {y}; the words are sorted
    import numpy as np
    space = (_lemma_space if _space_size(code.q, code.n) <= LEMMA_CACHE_WORDS
             else all_words_array)(code.q, code.n)
    counts = np.zeros(len(space), dtype=np.int64)
    for _, dist in _distance_blocks(_words_array(code), space):
        # a block's counts fit the narrowest type that holds its row count
        counts += (dist <= e).view(np.uint8).sum(
            axis=0, dtype=np.min_scalar_type(len(dist)))
    idx = int(counts.argmax())  # argmax returns the first (lex-least) max
    return tuple(space[idx].tolist()), int(counts[idx])


def johnson_ball_check(code: Code, e: int) -> VerificationReport:
    """Exhaustively verify the Johnson ball cap |C /\\ B(y, e)| <= q n d
    over all q^n centers, for e/n < J_q(d/n)."""
    check_int("e", e, 0, code.n)
    if code.size < 2:
        # every ball holds at most the one word; the cap is vacuous
        return VerificationReport(suite="johnson-ball", instances_checked=1,
                                  passed=True, payload={"max_count": code.size})
    d = code.min_distance()
    delta = Fraction(d, code.n)
    _check_delta(code.q, delta)
    if e >= _johnson_ceil(code.q, code.n, delta):
        raise PreconditionError(
            f"Johnson bound needs e/n < J_q(d/n); e={e}, n={code.n}, d={d}")
    center, count = pigeonhole_witness(code, e)
    cap = code.q * code.n * d
    passed = count <= cap
    return VerificationReport(
        suite="johnson-ball", instances_checked=code.q ** code.n, passed=passed,
        counterexample=None if passed else {
            "code": serialize_code(code), "e": e, "cap": cap,
            "center": center, "count": count},
        payload={"max_count": count, "cap": cap})


def random_code(q: int, n: int, size: int, seed: int) -> Code:
    """Deterministic random code of distinct words (fixed seed, fixed code)."""
    BoundParams(q, n, 1)  # checks q and n
    check_int("seed", seed, 0)
    total = _space_size(q, n, budget=2 ** 63 - 1)  # sample() needs < 2^63
    check_int("size", size, 0, total)
    import numpy as np
    # int64 holds every index and power; sorted distinct indices decode to
    # distinct words in lexicographic order
    idxs = sorted(random.Random(seed).sample(range(total), size))
    words = np.array(idxs, dtype=np.int64)[:, None] // q ** np.arange(
        n - 1, -1, -1, dtype=np.int64) % q
    code = Code(q, n, tuple(map(tuple, words.tolist())))
    code._array = words.astype(_symbol_dtype(q))  # what _words_array builds
    code._array.flags.writeable = False
    return code


def _check_suite_args(q_set, trials: int = 1, seed: int = 0) -> None:
    """A suite draws an alphabet from ``q_set``; an empty set, an alphabet
    that is no integer >= 2, or no trial, would pass with no check.  A
    negative seed would draw the codes of its absolute value."""
    if not q_set:
        raise DomainError("q_set must name at least one alphabet size")
    for q in q_set:
        check_int("q", q, 2)
    check_int("trials", trials, 1)
    check_int("seed", seed, 0)


def pigeonhole_suite(*, q_set=(2, 3), trials: int = 200,
                     seed: int = 0) -> VerificationReport:
    """Lemma check: for seeded random codes, the best-center count from an
    exhaustive scan meets the averaging bound, decided in integers as
    count q^n >= |C| V_q(n, e).  The payload counts the checks at a
    degenerate radius, e in {0, n}."""
    _check_suite_args(q_set, trials, seed)
    rng = random.Random(seed)
    payload = {"degenerate_radius": 0}

    def checks():
        for t in range(trials):
            q = q_set[t % len(q_set)]
            n = rng.randint(2, LEMMA_N_MAX)
            size = rng.randint(1, min(q ** n, 40))
            code = random_code(q, n, size, seed=rng.randrange(2 ** 30))
            e = rng.randint(0, n)
            _, count = pigeonhole_witness(code, e)
            payload["degenerate_radius"] += e in (0, n)
            covered = code.size * hamming_ball_volume(q, n, e)
            yield None if count * q ** n >= covered else {
                "code": serialize_code(code), "e": e, "count": count,
                "bound": str(Fraction(covered, q ** n))}

    return first_failure("pigeonhole", checks(), payload)


def johnson_suite(*, q_set=(2, 3), trials: int = 200,
                  seed: int = 0) -> VerificationReport:
    """Lemma check: the Johnson ball cap holds exhaustively for seeded
    random codes at the decoding radius e = ceil(n J_q(d/n)) - 1; a code
    with d q > (q-1) n is drawn again, with at most 50·trials draws in
    all.  The payload counts the checks at the degenerate radius e = 0."""
    _check_suite_args(q_set, trials, seed)
    rng = random.Random(seed)
    payload = {"degenerate_radius": 0}

    def checks():
        for attempt in range(1, 50 * trials + 1):
            q = q_set[attempt % len(q_set)]
            n = rng.randint(3, LEMMA_N_MAX)
            size = rng.randint(2, min(q ** n, 30))
            code = random_code(q, n, size, seed=rng.randrange(2 ** 30))
            d = code.min_distance()
            if d * q > (q - 1) * n:
                continue
            e = _johnson_ceil(q, n, Fraction(d, n)) - 1
            payload["degenerate_radius"] += e == 0
            yield johnson_ball_check(code, e).counterexample

    return first_failure("johnson", itertools.islice(checks(), trials),
                         payload)


def eb_soundness_sweep(q_set=(2, 3, 5), n_max: int = 7) -> VerificationReport:
    """Check the rate bound against exactly solved extremal codes.

    For each (q, n, d) within budget whose parameters meet the bound's
    preconditions, verify log_q A_q(n, d) / n < eb_rate_bound(q, n, d)
    (``_rate_check``).  Instances over ``max_code_size``'s space,
    candidate or work budget are skipped and counted, no clock deciding
    which; the payload lists each solved instance as [q, n, d, A].
    """
    _check_suite_args(q_set)
    check_int("n_max", n_max, 2)
    payload = {"skipped_precondition": 0, "skipped_resource": 0,
               "total_instances": 0, "solved": []}

    def checks():
        for q in q_set:
            for n in range(2, n_max + 1):
                if q ** n > SPACE_BUDGET:
                    continue
                for d in range(2, n + 1):
                    try:
                        _eb_inputs(BoundParams(q=q, n=n, d=d))
                    except (DomainError, PreconditionError):
                        payload["skipped_precondition"] += 1
                        continue
                    payload["total_instances"] += 1
                    try:
                        size, _ = max_code_size(q, n, d)
                    except ResourceBudgetError:
                        payload["skipped_resource"] += 1
                        continue
                    payload["solved"].append([q, n, d, size])
                    rate, bound, holds = _rate_check(q, n, d, size)
                    yield None if holds else {"q": q, "n": n, "d": d, "A": size,
                                              "rate": rate, "bound": bound}

    return first_failure("eb-soundness", checks(), payload)


# --- serialization --------------------------------------------------------

def serialize_code(code: Code) -> str:
    """Line-oriented text format: header ``q n size d`` (d = 0 when the
    minimum distance is undefined), then one word per line as digits,
    separated by spaces when q > 10 (a symbol may take several digits)."""
    d = code.min_distance() if code.size >= 2 else 0
    lines = [f"{code.q} {code.n} {code.size} {d}"]
    sep = " " if code.q > 10 else ""
    lines.extend(sep.join(map(str, w)) for w in code.words)
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> Code:
    """Inverse of ``serialize_code``: the header must be the one it writes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty code document")
    try:
        q, n, size, d = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise DomainError(f"malformed header {lines[0]!r}") from exc
    try:
        words = [tuple(map(int, ln.split() if q > 10 else ln.strip()))
                 for ln in lines[1:]]
    except ValueError as exc:
        raise DomainError(f"malformed word line: {exc}") from exc
    if len(words) != size:
        raise DomainError(f"header promises {size} words, found {len(words)}")
    code = make_code(q, n, words)
    if code.size != size:
        raise DomainError("duplicate words in serialized code")
    actual = code.min_distance() if code.size >= 2 else 0
    if d != actual:
        raise DomainError(f"header distance {d} != actual {actual}")
    return code
