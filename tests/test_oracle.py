"""Tests for the exhaustive oracle: metric axioms, exact extremal code
sizes, lemma checks, and the witness serialization format."""

import itertools
import math
import operator
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qbounds import (BoundParams, DomainError, PreconditionError,
                     ResourceBudgetError, eb_soundness_sweep,
                     hamming_ball_volume, johnson_ball_check, johnson_suite,
                     make_code, max_code_size, parse_code, pigeonhole_suite,
                     pigeonhole_witness, random_code, serialize_code)
from qbounds import eb_bounds, oracle
from qbounds.eb_bounds import _eb_inputs
from qbounds.oracle import (Code, _candidates, _color_classes, _conflicts,
                            _distance_blocks, _lemma_space, _symbol_dtype,
                            all_words_array, upper_bound)
from qbounds.precision import FLOAT

from perfect_codes import PERFECT, pigeonhole_sides


def _exactly(message):
    """A ``match`` pattern that accepts ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


# A_q(n, d) for q in {2, 3, 4, 5}, q^n <= 2100 and 2 <= d <= n, wherever the
# earlier recursive search (fixed zero word only, no seed, no early exit)
# finished within 20 s; pinned from it, so the symmetry-reduced search must
# agree with it exactly.
GRID = {
    (2, 2): {2: 2},
    (2, 3): {2: 4, 3: 2},
    (2, 4): {2: 8, 3: 2, 4: 2},
    (2, 5): {2: 16, 3: 4, 4: 2, 5: 2},
    (2, 6): {2: 32, 3: 8, 4: 4, 5: 2, 6: 2},
    (2, 7): {2: 64, 3: 16, 4: 8, 5: 2, 6: 2, 7: 2},
    (2, 8): {2: 128, 4: 16, 5: 4, 6: 2, 7: 2, 8: 2},
    (2, 9): {2: 256, 5: 6, 6: 4, 7: 2, 8: 2, 9: 2},
    (2, 10): {2: 512, 6: 6, 7: 2, 8: 2, 9: 2, 10: 2},
    (2, 11): {2: 1024, 7: 4, 8: 2, 9: 2, 10: 2, 11: 2},
    (3, 2): {2: 3},
    (3, 3): {2: 9, 3: 3},
    (3, 4): {2: 27, 3: 9, 4: 3},
    (3, 5): {2: 81, 3: 18, 4: 6, 5: 3},
    (3, 6): {2: 243, 5: 4, 6: 3},
    (4, 2): {2: 4},
    (4, 3): {2: 16, 3: 4},
    (4, 4): {2: 64, 3: 16, 4: 4},
    (4, 5): {4: 16, 5: 4},
    (5, 2): {2: 5},
    (5, 3): {2: 25, 3: 5},
    (5, 4): {4: 5},
}


def _witness_ok(code, q, n, d, size):
    """Check a witness with numpy alone: size distinct words over the
    alphabet, pairwise at distance >= d."""
    words = np.array(code.words, dtype=np.int64).reshape(-1, n)
    if len(words) != size or len(np.unique(words, axis=0)) != size:
        return False
    if not ((0 <= words) & (words < q)).all():
        return False
    return all((words[i + 1:] != words[i]).sum(axis=1).min() >= d
               for i in range(size - 1))


def _peak_memory(q, n, d):
    """A_q(n, d) and the peak memory its second computation takes."""
    max_code_size(q, n, d)  # the modules the search uses are loaded
    tracemalloc.start()
    try:
        return max_code_size(q, n, d)[0], tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _distance(a, b):
    """Hamming distance of two words through the blocked kernel."""
    (_, dist), = _distance_blocks(np.array([a]), np.array([b]))
    return int(dist[0, 0])


class TestWordOps:
    def test_weight(self):
        # the weight of a word is its distance from the zero word
        assert _distance((0, 0, 0), (0, 0, 0)) == 0
        assert _distance((1, 2, 1, 2), (0, 0, 0, 0)) == 4
        assert _distance((1, 0, 2, 0), (0, 0, 0, 0)) == 2

    def test_distance_basics(self):
        assert _distance((0, 1, 2), (0, 1, 2)) == 0
        assert _distance((0, 0, 0, 0), (1, 1, 1, 1)) == 4

    def test_distance_mismatch(self):
        # words of another length never reach the kernel
        with pytest.raises(DomainError, match="has length 2, expected 3"):
            make_code(3, 3, [(0, 1, 2), (0, 1)])

    def test_metric_axioms_random(self):
        rng = random.Random(11)
        for _ in range(300):
            q = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 10)
            a, b, c = (tuple(rng.randrange(q) for _ in range(n))
                       for _ in range(3))
            assert _distance(a, b) >= 0
            assert (_distance(a, b) == 0) == (a == b)
            assert _distance(a, b) == _distance(b, a)
            assert _distance(a, c) <= _distance(a, b) + _distance(b, c)


class TestCode:
    def test_normalization(self):
        code = make_code(3, 2, [(1, 0), (0, 1), (1, 0)])
        assert code.size == 2
        assert code.words == ((0, 1), (1, 0))

    def test_word_validation(self):
        with pytest.raises(DomainError):
            make_code(3, 2, [(0, 3)])
        with pytest.raises(DomainError):
            make_code(3, 2, [(0, 1, 2)])

    def test_min_distance_repetition(self):
        for q, n in ((2, 5), (3, 4)):
            code = make_code(q, n, [(s,) * n for s in range(q)])
            assert code.min_distance() == n

    def test_min_distance_full_space(self):
        code = make_code(3, 2, itertools.product(range(3), repeat=2))
        assert code.min_distance() == 1

    def test_min_distance_caches(self, monkeypatch):
        code = make_code(2, 4, [(0, 0, 0, 0), (1, 1, 1, 0)])
        calls = []
        words_array = oracle._words_array
        monkeypatch.setattr(oracle, "_words_array",
                            lambda c: calls.append(c) or words_array(c))
        assert code.min_distance() == 3
        assert code.min_distance() == 3
        assert calls == [code]

    def test_min_distance_undefined(self):
        with pytest.raises(DomainError):
            make_code(2, 3, [(0, 0, 0)]).min_distance()

    def test_min_distance_beyond_one_byte_lengths(self):
        # distances of 256 and 300 symbols would wrap around in one byte
        n = 300
        code = make_code(2, n, [(0,) * n, (1,) * 256 + (0,) * 44, (1,) * n])
        assert code.min_distance() == 44
        assert make_code(2, n, code.words[::2]).min_distance() == 300
        assert make_code(2, n, code.words[:2]).min_distance() == 256

    @pytest.mark.parametrize("seed", [0, 1, 3, 8])
    def test_min_distance_over_several_blocks(self, seed):
        # 600 words of 12 symbols: 2^20 // 7,200 = 145 rows a block, five
        # blocks; the closest pair starts in block 1, 3, 2 and 3 (0-based)
        code = random_code(4, 12, 600, seed)
        arr = np.array(code.words)
        assert len(list(_distance_blocks(arr, arr))) == 5
        assert code.min_distance() == min(
            int((arr[i + 1:] != arr[i]).sum(axis=1).min())
            for i in range(len(arr) - 1))

    def test_translation_invariance(self):
        rng = random.Random(12)
        for _ in range(30):
            q = rng.choice([2, 3, 5])
            n = rng.randint(2, 6)
            code = random_code(q, n, rng.randint(2, min(q ** n, 20)),
                               seed=rng.randrange(2 ** 30))
            t = tuple(rng.randrange(q) for _ in range(n))
            shifted = make_code(q, n, [tuple((s + u) % q for s, u in zip(w, t))
                                       for w in code.words])
            assert code.min_distance() == shifted.min_distance()


class TestWordsArray:
    @pytest.mark.parametrize("q, n, size, seed", [
        (2, 5, 7, 0), (3, 4, 0, 1), (3, 7, 40, 2), (5, 6, 60, 7),
        (300, 2, 40, 3)])
    def test_random_code_keeps_its_array(self, q, n, size, seed):
        code = random_code(q, n, size, seed)
        arr = oracle._words_array(code)
        assert arr is code._array is oracle._words_array(code)
        assert arr.dtype == _symbol_dtype(q) and arr.shape == (size, n)
        assert np.array_equal(arr, np.array(code.words).reshape(size, n))
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0

    def test_first_call_fills_the_cache(self):
        code = make_code(300, 2, [(299, 0), (1, 256)])
        assert code._array is None
        arr = oracle._words_array(code)
        assert code._array is arr and not arr.flags.writeable
        assert arr.dtype == np.uint16 and arr.tolist() == [[1, 256], [299, 0]]

    def test_equality_ignores_the_cache(self):
        drawn = random_code(3, 5, 12, seed=4)  # holds its array
        built = make_code(3, 5, drawn.words)   # holds none
        assert drawn._array is not None and built._array is None
        for _ in range(2):
            assert drawn == built and hash(drawn) == hash(built)
            assert repr(drawn) == repr(built)
            oracle._words_array(built)
            drawn.min_distance()
        again = drawn._replace()
        assert again == drawn and again._array is None
        assert again._min_distance is None


class TestBeyondOneByteSymbols:
    """Symbols of q > 256 need more than one byte; q <= 256 keeps uint8."""

    @pytest.mark.parametrize("q, dtype", [(2, np.uint8), (256, np.uint8),
                                          (257, np.uint16), (300, np.uint16)])
    def test_space_dtype(self, q, dtype):
        assert all_words_array(q, 2).dtype == dtype

    def test_space_rows_are_distinct(self):
        space = all_words_array(300, 2)
        assert len(np.unique(space, axis=0)) == 90_000
        assert space[-1].tolist() == [299, 299]

    def test_min_distance(self):
        assert make_code(300, 2, [(0, 0), (256, 0)]).min_distance() == 1

    def test_pigeonhole_witness(self):
        assert pigeonhole_witness(make_code(300, 2, [(256, 0)]), 0) == \
            ((256, 0), 1)
        # e = 1 goes through the distance kernel, on uint16 symbols
        code = make_code(300, 2, [(256, 0), (256, 5), (3, 5)])
        assert pigeonhole_witness(code, 1) == ((256, 5), 3)

    def test_candidate_count(self):
        # q^n <= 10^6 leaves only n = 2 for q > 256, and d <= 2 is closed
        # form, so no such instance reaches the candidate cap
        size, witness = max_code_size(300, 2, 2)
        assert size == witness.size == 300
        assert oracle._words_array(witness).dtype == np.uint16


class TestMaxCodeSize:
    @pytest.mark.parametrize("q, n", [(2, 2), (2, 7), (3, 5), (5, 3), (11, 2)])
    @pytest.mark.parametrize("d", [1, 2])
    def test_closed_form_at_d_le_2(self, q, n, d):
        size, witness = max_code_size(q, n, d)
        assert size == q ** (n - d + 1)
        # stored sorted, as make_code stores them; the distance set by
        # construction is the one computed afresh
        assert witness == make_code(q, n, witness.words)
        assert witness.min_distance() == witness._replace().min_distance() == d
        assert _witness_ok(witness, q, n, d, size)

    def test_sum_code_is_serialized_without_a_distance_pass(self,
                                                            monkeypatch):
        def no_distances(a, b):
            raise AssertionError("a distance block was computed")
        monkeypatch.setattr(oracle, "_distance_blocks", no_distances)
        size, witness = max_code_size(3, 12, 2)
        assert size == 3 ** 11
        text = serialize_code(witness)
        assert text.startswith("3 12 177147 2\n")
        # the last word: eleven 2s, whose sum 22 is 1 mod 3
        assert text.endswith("\n222222222221\n")

    @pytest.mark.parametrize("q, n, d, size", [
        (3, 4, 3, 9), (3, 5, 3, 18), (2, 8, 4, 16), (5, 6, 6, 5)])
    def test_searched_code_is_serialized_without_a_distance_pass(
            self, monkeypatch, q, n, d, size):
        def no_distances(a, b):
            raise AssertionError("a distance block was computed")
        monkeypatch.setattr(oracle, "_distance_blocks", no_distances)
        got, witness = max_code_size(q, n, d)
        assert got == size
        assert serialize_code(witness).startswith(f"{q} {n} {size} {d}\n")
        monkeypatch.undo()
        # the distance set by construction is the one computed afresh
        assert witness._replace().min_distance() == d
        assert _witness_ok(witness, q, n, d, size)

    def test_whole_space_at_d1(self):
        size, witness = max_code_size(3, 4, 1)
        assert size == 81
        assert witness.size == 81
        assert witness == make_code(
            3, 4, itertools.product(range(3), repeat=4))

    @pytest.mark.parametrize("q, n", [(300, 2), (1000, 1)])
    def test_whole_space_at_d1_beyond_one_byte_symbols(self, q, n):
        size, witness = max_code_size(q, n, 1)
        assert size == witness.size == q ** n
        assert witness.words[-1] == (q - 1,) * n

    def test_repetition_at_d_equals_n(self):
        for q, n in ((2, 5), (3, 4), (5, 3)):
            size, witness = max_code_size(q, n, n)
            assert size == q
            assert witness.min_distance() == n

    def test_ternary_hamming_instance(self):
        size, witness = max_code_size(3, 4, 3)
        assert size == 9
        assert witness.size == 9
        assert witness.min_distance() == 3
        assert (0, 0, 0, 0) in witness.words

    def test_known_binary_values(self):
        # independent cross-checks: A_2(4,3) = 2, A_2(5,3) = 4, A_2(6,3) = 8
        assert max_code_size(2, 4, 3)[0] == 2
        assert max_code_size(2, 5, 3)[0] == 4
        assert max_code_size(2, 6, 3)[0] == 8

    def test_monotone_in_d(self):
        for q, n in ((2, 6), (3, 4)):
            sizes = [max_code_size(q, n, d)[0] for d in range(1, n + 1)]
            assert sizes == sorted(sizes, reverse=True)

    def test_sphere_packing_cap(self):
        for q, n, d in ((2, 6, 3), (3, 4, 3), (2, 7, 3), (3, 5, 3)):
            size, _ = max_code_size(q, n, d)
            ball = hamming_ball_volume(q, n, (d - 1) // 2)
            assert size * ball <= q ** n

    def test_deterministic_witness(self):
        first = max_code_size(3, 4, 3)[1]
        second = max_code_size(3, 4, 3)[1]
        assert first.words == second.words

    def test_space_budget(self):
        with pytest.raises(ResourceBudgetError):
            max_code_size(5, 10, 3)

    @pytest.mark.parametrize("build", [
        lambda q, n: max_code_size(q, n, 3), all_words_array],
        ids=["max_code_size", "all_words_array"])
    @pytest.mark.parametrize("q, n", [(5, 10), (3, 10 ** 4), (3, 3 * 10 ** 7)])
    def test_space_budget_names_q_and_n(self, build, q, n):
        # 3^10000 has too many digits for str(); 3^(3 10^7) took seconds
        with pytest.raises(ResourceBudgetError,
                           match=rf"^q\^n = {q}\^{n} exceeds budget 1000000$"):
            build(q, n)

    def test_time_budget(self):
        # the clock stays as a safety net below the work budget
        with pytest.raises(ResourceBudgetError,
                           match=_exactly("clique search exceeded time limit")):
            max_code_size(2, 12, 3, time_limit=1e-6)

    def test_work_budget_fits_the_search_it_must_finish(self, monkeypatch):
        # A_3(5, 3) = 18 needs 1,955,260 units, the most of the criterion-06
        # instances solved
        monkeypatch.setattr(oracle, "MAX_WORK", 1_955_260)
        assert max_code_size(3, 5, 3)[0] == 18
        monkeypatch.setattr(oracle, "MAX_WORK", 1_955_259)
        with pytest.raises(ResourceBudgetError,
                           match=_exactly("work budget 1955259 spent")):
            max_code_size(3, 5, 3)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
    def test_time_limit_must_be_positive(self, limit):
        # a NaN deadline never passes, so a long search would never stop
        with pytest.raises(DomainError):
            max_code_size(3, 4, 3, time_limit=limit)

    def test_candidate_cap(self):
        # 2^14 - 1 - 14 - 91 = 16,278 words of weight >= 3 in F_2^14
        with pytest.raises(ResourceBudgetError,
                           match=r"set of 16278 words exceeds cap 8192$"):
            max_code_size(2, 14, 3)

    def test_candidate_cap_counts_heavy_words(self, monkeypatch):
        # 163 words of weight >= 4 in F_2^8; fewer lie at distance >= 4
        # from w2 too, but the cap counts all 163
        heavy = sum(math.comb(8, w) for w in range(4, 9))
        assert heavy == 163
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", heavy)
        assert max_code_size(2, 8, 4)[0] == 16
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", heavy - 1)
        with pytest.raises(ResourceBudgetError,
                           match=rf"set of {heavy} words exceeds cap "
                                 rf"{heavy - 1}$"):
            max_code_size(2, 8, 4)

    def test_cap_rejection_builds_no_words(self, monkeypatch):
        # 2^19 - V_2(19, 2) = 524,097 words of weight >= 3: the count is
        # closed-form, so no candidate exists when the cap rejects it
        def no_words(q, n, d):
            raise AssertionError(f"_candidates({q}, {n}, {d}) was called")
        monkeypatch.setattr(oracle, "_candidates", no_words)
        with pytest.raises(ResourceBudgetError,
                           match=r"set of 524097 words exceeds cap 8192$"):
            max_code_size(2, 19, 3)

    def test_memory_follows_the_candidates(self):
        # 2^19 words would take 10 MB; the two halves take 2^9 and 2^10
        size, peak = _peak_memory(2, 19, 15)
        assert size == 2 and peak < 2_000_000

    def test_memory_of_the_search_follows_the_candidates(self):
        # A_4(6, 4) = 64 searches 2,854 candidates, about 1.4 MB with their
        # conflict rows; a 4^6 x 4^6 distance matrix alone would take 16 MB
        size, peak = _peak_memory(4, 6, 4)
        assert size == 64 and peak < 4_000_000

    def test_leaves_the_lemma_space_cache_alone(self):
        before = _lemma_space.cache_info()
        assert max_code_size(2, 19, 15)[0] == 2
        assert _lemma_space.cache_info() == before

    @pytest.mark.parametrize("q, n, d", [(q, n, d) for (q, n), row in GRID.items()
                                         for d in row])
    def test_pinned_grid(self, q, n, d):
        size, witness = max_code_size(q, n, d)
        assert size == GRID[q, n][d]
        assert _witness_ok(witness, q, n, d, size)

    def test_deep_clique(self, monkeypatch):
        # the search for A_5(5, 3) stacks 78 frames before its work budget
        # is spent, the deepest of the d >= 3 instances within the caps
        depths = []
        color = oracle._color_classes

        def watched(mask, conflict):
            # called by frame(), which max_code_size calls
            depths.append(len(sys._getframe(2).f_locals.get("stack", ())))
            return color(mask, conflict)

        monkeypatch.setattr(oracle, "_color_classes", watched)
        with pytest.raises(ResourceBudgetError, match="work budget"):
            max_code_size(5, 5, 3)
        assert max(depths) == 78

    def test_search_needs_no_recursion(self):
        # 50 levels are fewer than the 78 frames of test_deep_clique
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            with pytest.raises(ResourceBudgetError, match="work budget"):
                max_code_size(5, 5, 3)
        finally:
            sys.setrecursionlimit(old_limit)


def test_candidates_match_the_full_space_filter():
    # every (q, n, d) with q^n <= 2^14 and 2 <= d <= n: n = 2, odd n and
    # d > n / 2 included; same words, same lexicographic order
    checked = 0
    for q in range(2, 129):
        for n in range(2, 15):
            if q ** n > 2 ** 14:
                break
            space = all_words_array(q, n)
            weight = (space != 0).sum(axis=1)
            for d in range(2, n + 1):
                w2 = np.array([0] * (n - d) + [1] * d)
                keep = (weight >= d) & ((space != w2).sum(axis=1) >= d)
                got = _candidates(q, n, d)
                assert got == list(map(tuple, space[keep].tolist())), (q, n, d)
                checked += 1
    assert checked == 340


def _searched_instances():
    """The (q, n, d), d >= 3, of the pinned grid and of criterion 06 whose
    words of weight >= d are within the candidate cap."""
    sweep = set()
    for q in (2, 3, 5):
        for n in range(3, 13):
            if q ** n > oracle.SPACE_BUDGET:
                break
            for d in range(3, n + 1):
                try:
                    _eb_inputs(BoundParams(q=q, n=n, d=d))
                except (DomainError, PreconditionError):
                    continue
                if (q ** n - hamming_ball_volume(q, n, d - 1)
                        <= oracle.MAX_CANDIDATES):
                    sweep.add((q, n, d))
    grid = {(q, n, d) for (q, n), row in GRID.items() for d in row if d >= 3}
    return sorted(grid | sweep)


def test_conflicts_match_the_distance_kernel():
    # row i is bit j set iff dist(cand[i], cand[j]) < d, bit i included,
    # each row taken from the blocked numpy kernel, the reference
    instances = _searched_instances()
    assert len(instances) == 69
    for q, n, d in instances:
        cand = _candidates(q, n, d)
        want = []
        for _, dist in _distance_blocks(np.array(cand).reshape(-1, n),
                                        np.array(cand).reshape(-1, n)):
            bits = np.packbits(dist < d, axis=1, bitorder="little")
            want.extend(int.from_bytes(row.tobytes(), "little")
                        for row in bits)
        assert _conflicts(cand, d) == want, (q, n, d)
        assert all(row >> i & 1 for i, row in enumerate(want)), (q, n, d)


def _sequential_coloring(mask, conflict):
    """The reference greedy colouring: the candidates of ``mask`` are
    visited in ascending order, once per class, and each joins the class
    when it conflicts with every candidate already in it."""
    order, bounds = [], []
    uncolored = [v for v in range(mask.bit_length()) if mask >> v & 1]
    color = 0
    while uncolored:
        color += 1
        members, rest = [], []
        for v in uncolored:
            if all(conflict[v] >> u & 1 for u in members):
                members.append(v)
                order.append(v)
                bounds.append(color)
            else:
                rest.append(v)
        uncolored = rest
    return order, bounds


@pytest.mark.parametrize("q, n, d", [(2, 12, 7), (2, 8, 4), (3, 5, 3),
                                     (5, 4, 3)])
def test_color_classes_match_the_sequential_coloring(q, n, d):
    # the classes, their order and their bounds decide every search frame
    conflict = _conflicts(_candidates(q, n, d), d)
    size, rng = len(conflict), random.Random(q * 1000 + n * 10 + d)
    # the whole set, 10 masks of density 1/4 and 10 of density 1/2
    masks = [(1 << size) - 1] + [
        rng.getrandbits(size) & rng.getrandbits(size) for _ in range(10)] + [
        rng.getrandbits(size) for _ in range(10)]
    for mask in masks:
        assert _color_classes(mask, conflict) == \
            _sequential_coloring(mask, conflict), (q, n, d, mask)
    assert _color_classes(0, conflict) == _sequential_coloring(0, conflict) \
        == ([], [])


class TestUpperBound:
    def test_values(self):
        assert upper_bound(2, 7, 3) == (16, "sphere-packing")
        assert upper_bound(2, 8, 4) == (28, "sphere-packing")
        assert upper_bound(3, 4, 3) == (9, "singleton")
        assert upper_bound(2, 10, 2) == (512, "singleton")

    def test_tie_goes_to_singleton(self):
        # d = 1: both are q^n
        assert upper_bound(3, 4, 1) == (81, "singleton")

    def test_bounds_every_grid_value(self):
        for (q, n), row in GRID.items():
            for d, size in row.items():
                assert size <= upper_bound(q, n, d).value

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_bound(2, 4, 5)

    def test_space_budget(self):
        # no q^n past BALL_VOLUME_BITS is formed: 3^(3*10^6) takes about 1 s
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="65536"):
            upper_bound(3, 3 * 10 ** 6, 3)
        assert time.perf_counter() - start < 0.1
        # n bitlen(q-1) + 1 = 2^16 is within it, 2^16 + 1 is not
        assert upper_bound(2, 2 ** 16 - 1, 3).by == "sphere-packing"
        with pytest.raises(ResourceBudgetError):
            upper_bound(2, 2 ** 16, 3)


class TestPigeonhole:
    def test_full_radius(self):
        code = random_code(3, 4, 10, seed=1)
        _, count = pigeonhole_witness(code, 4)
        assert count == code.size

    def test_zero_radius(self):
        code = random_code(3, 4, 10, seed=2)
        y, count = pigeonhole_witness(code, 0)
        assert count == 1
        assert y in code.words

    def test_meets_averaging_bound(self):
        rng = random.Random(13)
        for _ in range(50):
            code = random_code(3, 5, rng.randint(1, 40),
                               seed=rng.randrange(2 ** 30))
            e = rng.randint(0, 5)
            _, count = pigeonhole_witness(code, e)
            bound = Fraction(code.size * hamming_ball_volume(3, 5, e), 3 ** 5)
            assert Fraction(count) >= bound

    @pytest.mark.parametrize("e", range(4))
    def test_empty_code(self, e):
        assert pigeonhole_witness(make_code(2, 3, []), e) == ((0, 0, 0), 0)

    def test_non_integer_radius(self):
        code = random_code(3, 4, 10, seed=1)
        for e in (1.5, 1.0, Fraction(1), None, True):
            with pytest.raises(DomainError, match=_exactly(
                    f"e must be an integer with 0 <= e <= 4, got {e!r}")):
                pigeonhole_witness(code, e)

    def test_suite(self, monkeypatch):
        degenerate = []
        witness = oracle.pigeonhole_witness
        monkeypatch.setattr(oracle, "pigeonhole_witness", lambda code, e: (
            degenerate.append(e in (0, code.n)) or witness(code, e)))
        rep = pigeonhole_suite(trials=60, seed=5)
        assert rep.passed
        assert rep.instances_checked == len(degenerate) == 60
        assert rep.payload == {"degenerate_radius": sum(degenerate)}
        assert 0 < sum(degenerate) < 60

    @pytest.mark.parametrize("q, n", [(2, 8), (2, 9), (2, 10), (3, 5)])
    def test_whole_space_counts(self, q, n):
        # one block of 256 rows at (2, 8), several blocks of up to 227 rows
        # at (2, 9) and (2, 10): every ball holds V_q(n, e) codewords
        code = make_code(q, n, itertools.product(range(q), repeat=n))
        for e in range(1, n):
            assert pigeonhole_witness(code, e) == \
                ((0,) * n, hamming_ball_volume(q, n, e))

    def test_suite_reports_the_exact_bound(self, monkeypatch):
        monkeypatch.setattr(oracle, "pigeonhole_witness",
                            lambda code, e: ((0,) * code.n, 0))
        rep = pigeonhole_suite(trials=5, seed=1)
        assert not rep.passed and rep.instances_checked == 1
        ce = rep.counterexample
        code = parse_code(ce["code"])
        assert ce["count"] == 0
        assert Fraction(ce["bound"]) == Fraction(
            code.size * hamming_ball_volume(code.q, code.n, ce["e"]),
            code.q ** code.n)

    def test_caches_only_small_spaces(self):
        # 2^16 words are cached; 2^17 are built for the call and let go
        _lemma_space.cache_clear()
        pigeonhole_witness(random_code(2, 16, 5, seed=1), 1)
        assert _lemma_space.cache_info().currsize == 1
        pigeonhole_witness(random_code(2, 17, 5, seed=1), 1)
        info = _lemma_space.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)

    def test_space_is_cached_read_only(self):
        code = random_code(3, 5, 7, seed=4)
        pigeonhole_witness(code, 1)
        hits = _lemma_space.cache_info().hits
        space = _lemma_space(3, 5)
        assert _lemma_space.cache_info().hits == hits + 1
        assert space.tolist() == all_words_array(3, 5).tolist()
        assert not space.flags.writeable
        with pytest.raises(ValueError):
            space[0, 0] = 1
        assert _lemma_space(3, 5)[0].tolist() == [0] * 5


class TestPigeonholeTight:
    """At the packing radius the balls around a perfect code's words tile
    the space, so the pigeonhole bound count q^n >= |C| V_q(n, e) is met
    with equality: a check there fails if the bound is off by one word."""

    @pytest.mark.parametrize("name", sorted(PERFECT))
    def test_perfect_code_meets_the_bound(self, name):
        covered, bound = pigeonhole_sides(name)
        assert covered == bound

    @pytest.mark.parametrize("name", sorted(PERFECT))
    def test_a_ball_one_word_larger_fails(self, monkeypatch, name):
        volume = oracle.hamming_ball_volume
        monkeypatch.setattr(oracle, "hamming_ball_volume",
                            lambda q, n, e: volume(q, n, e) + 1)
        covered, bound = pigeonhole_sides(name)
        assert covered < bound


class TestJohnsonCheck:
    def test_decoding_radius_passes(self):
        rng = random.Random(14)
        for _ in range(20):
            code = random_code(3, 5, rng.randint(2, 25),
                               seed=rng.randrange(2 ** 30))
            d = code.min_distance()
            from qbounds import johnson_radius
            e = math.ceil(5 * johnson_radius(3, Fraction(d, 5))) - 1
            if e < 0:
                continue
            assert johnson_ball_check(code, e).passed

    def test_singleton_trivially_passes(self):
        code = make_code(3, 4, [(0, 1, 2, 0)])
        assert johnson_ball_check(code, 2).passed
        for e in (-1, 5, 0.5):
            with pytest.raises(DomainError, match=_exactly(
                    f"e must be an integer with 0 <= e <= 4, got {e!r}")):
                johnson_ball_check(code, e)

    def test_precondition(self):
        code = make_code(2, 6, [(0,) * 6, (1, 1, 1, 0, 0, 0)])
        with pytest.raises(PreconditionError):
            johnson_ball_check(code, 5)

    def test_non_integer_radius(self):
        # e = 0.5 is below the Johnson radius ceil(6 J_2(1/2)) = 3
        code = make_code(2, 6, [(0,) * 6, (1, 1, 1, 0, 0, 0)])
        with pytest.raises(DomainError, match=_exactly(
                "e must be an integer with 0 <= e <= 6, got 0.5")):
            johnson_ball_check(code, 0.5)

    def test_suite(self, monkeypatch):
        degenerate = []
        witness = oracle.pigeonhole_witness
        monkeypatch.setattr(oracle, "pigeonhole_witness", lambda code, e: (
            degenerate.append(e == 0) or witness(code, e)))
        rep = johnson_suite(trials=60, seed=6)
        assert rep.passed
        assert rep.instances_checked == len(degenerate) == 60
        assert rep.payload == {"degenerate_radius": sum(degenerate)}
        assert 0 < sum(degenerate) < 60

    def test_suite_checks_up_to_the_edge(self, monkeypatch):
        # a code with d/n = (q-1)/q is checked; one beyond it is drawn again
        deltas = []
        check = oracle.johnson_ball_check
        monkeypatch.setattr(oracle, "johnson_ball_check", lambda code, e: (
            deltas.append((code.q, Fraction(code.min_distance(), code.n)))
            or check(code, e)))
        assert johnson_suite(trials=200, seed=0).passed
        assert all(delta <= Fraction(q - 1, q) for q, delta in deltas)
        assert any(delta == Fraction(q - 1, q) for q, delta in deltas)


class TestSuiteArguments:
    @pytest.mark.parametrize("suite", [pigeonhole_suite, johnson_suite])
    def test_bad_arguments_raise_domain_error(self, suite):
        with pytest.raises(DomainError, match="q_set"):
            suite(q_set=())
        for trials in (0, -3, 2.0):
            # no check at all must not read as a pass
            with pytest.raises(DomainError, match=_exactly(
                    f"trials must be an integer >= 1, got {trials!r}")):
                suite(trials=trials)
        assert suite(trials=3).passed


def _loop_distance(a, b):
    return sum(map(operator.ne, a, b))


def _brute_force_codes():
    """Seeded codes for every (q, n) with q in 2..5 and q^n <= 20,000, two
    where q^n <= 2,000: 1 to 60 words, and q^n x size <= 120,000 to bound
    the pure-Python reference loops."""
    rng = random.Random(2026)
    cases = []
    for q in (2, 3, 4, 5):
        for n in itertools.takewhile(lambda n: q ** n <= 20_000,
                                     itertools.count(1)):
            for _ in range(2 if q ** n <= 2_000 else 1):
                size = rng.randint(1, min(q ** n, 60, 120_000 // q ** n))
                cases.append((q, n, size, rng.randrange(2 ** 30)))
    return cases


class TestAgainstLoops:
    """The distance kernel's users against pure-Python loops over every
    center and every pair."""

    @pytest.mark.parametrize("q, n, size, seed", _brute_force_codes())
    def test_ball_counts_and_min_distance(self, q, n, size, seed):
        code = random_code(q, n, size, seed)
        centers = list(itertools.product(range(q), repeat=n))  # lex order
        within = []  # within[y][e] = |C /\\ B(y, e)|
        for y in centers:
            hist = [0] * (n + 1)
            for w in code.words:
                hist[_loop_distance(y, w)] += 1
            within.append(list(itertools.accumulate(hist)))
        for e in range(n + 1):
            counts = [c[e] for c in within]
            best = max(counts)
            assert pigeonhole_witness(code, e) == \
                (centers[counts.index(best)], best)
            if size >= 2:
                try:
                    rep = johnson_ball_check(code, e)
                except (DomainError, PreconditionError):
                    continue
                assert rep.payload["max_count"] == best
                assert rep.instances_checked == q ** n
        if size >= 2:
            assert code.min_distance() == min(
                _loop_distance(a, b)
                for a, b in itertools.combinations(code.words, 2))

    def test_ball_counts_over_many_blocks(self):
        # 33 code rows against 2^17 centers of 17 symbols: one row a block
        code = random_code(2, 17, 33, seed=8)
        space = (np.arange(2 ** 17)[:, None] >> np.arange(16, -1, -1) & 1
                 ).astype(np.uint8)
        dist = [(space != np.array(w, dtype=np.uint8)).sum(axis=1)
                for w in code.words]
        for e in (0, 1, 8):
            counts = sum((d <= e).astype(np.int64) for d in dist)
            idx = int(counts.argmax())
            assert pigeonhole_witness(code, e) == \
                (tuple(space[idx].tolist()), int(counts[idx]))


def _kernel_against_loop(a, b):
    """Check every D[i, j] of ``_distance_blocks(a, b)`` against the
    pure-Python distance of a[i] and b[j], computed once per distinct pair
    of rows; return the block lengths."""
    ua, ia = np.unique(a, axis=0, return_inverse=True)
    ub, ib = np.unique(b, axis=0, return_inverse=True)
    table = np.array([[_loop_distance(x, y) for y in ub.tolist()]
                      for x in ua.tolist()], dtype=np.uint8)
    ia, ib = ia.reshape(-1), ib.reshape(-1)
    lengths = []
    for lo, dist in _distance_blocks(a, b):
        assert lo == sum(lengths)
        assert dist.dtype == np.uint8 and dist.size <= 1 << 22
        assert dist.shape[1] == len(b)
        assert (dist == table[ia[lo:lo + len(dist)]][:, ib]).all()
        lengths.append(len(dist))
    assert sum(lengths) == len(a)
    return lengths


def _random_words(rng, q, n, count):
    return np.array([[rng.randrange(q) for _ in range(n)]
                     for _ in range(count)], dtype=_symbol_dtype(q))


class TestDistanceKernel:
    """``_distance_blocks`` against pure-Python distances, in both shape
    orders, over several blocks and beyond one-byte symbols."""

    def test_a_longer_than_b(self):
        rng = random.Random(31)
        a, b = _random_words(rng, 3, 6, 200), _random_words(rng, 3, 6, 50)
        assert _kernel_against_loop(a, b) == [200]

    def test_b_longer_than_a(self):
        rng = random.Random(32)
        a, b = _random_words(rng, 5, 4, 6), _random_words(rng, 5, 4, 600)
        assert _kernel_against_loop(a, b) == [6]

    def test_several_blocks(self):
        # 2^20 symbol pairs // (70,000 x 6) = 2 rows a block
        rng = random.Random(33)
        a = _random_words(rng, 4, 6, 70)
        b = all_words_array(4, 6)[np.random.default_rng(33).integers(
            0, 4 ** 6, size=70_000)]
        assert _kernel_against_loop(a, b) == [2] * 35

    def test_beyond_one_byte_symbols(self):
        rng = random.Random(34)
        a = np.concatenate([np.array([[0, 0, 0], [256, 0, 0]],
                                     dtype=np.uint16),
                            _random_words(rng, 300, 3, 40)])
        b = np.concatenate([a[:2], _random_words(rng, 300, 3, 30)])
        assert a.dtype == b.dtype == np.uint16
        assert _kernel_against_loop(a, b) == [42]
        assert _kernel_against_loop(b, a) == [32]
        _, dist = next(_distance_blocks(a[:2], a[:2]))
        assert dist.tolist() == [[0, 1], [1, 0]]

    def test_empty_operand(self):
        a = _random_words(random.Random(35), 2, 3, 4)
        assert list(_distance_blocks(a[:0], a)) == []
        assert [d.shape for _, d in _distance_blocks(a, a[:0])] == [(4, 0)]


def _index_digits(q, n, idx):
    return tuple(idx // q ** k % q for k in reversed(range(n)))


class TestRandomCode:
    # golden: words pinned as earlier releases printed them, where given
    @pytest.mark.parametrize("q, n, size, seed, golden", [
        (2, 5, 7, 0, None), (3, 4, 10, 42, None), (5, 6, 60, 7, None),
        (4, 9, 33, 123, None), (2, 62, 5, 3, None), (7, 22, 4, 1, None),
        (3, 4, 6, 42, ((0, 0, 1, 0), (0, 1, 1, 2), (0, 1, 2, 2),
                       (1, 0, 0, 1), (1, 0, 1, 1), (1, 0, 2, 2))),
        (5, 3, 4, 7, ((0, 3, 4), (1, 3, 1), (2, 0, 0), (4, 4, 1)))])
    def test_words_follow_the_sample_stream(self, q, n, size, seed, golden):
        idxs = random.Random(seed).sample(range(q ** n), size)
        words = random_code(q, n, size, seed).words
        assert words == tuple(sorted(_index_digits(q, n, i) for i in idxs))
        assert golden is None or words == golden

    def test_forced_full_space(self):
        assert random_code(3, 4, 81, seed=9).size == 81

    def test_singleton(self):
        assert random_code(3, 4, 1, seed=9).size == 1

    def test_deterministic(self):
        assert random_code(3, 4, 10, seed=42).words == \
            random_code(3, 4, 10, seed=42).words

    def test_size_cap(self):
        with pytest.raises(DomainError):
            random_code(2, 3, 9, seed=0)

    @pytest.mark.parametrize("size", [-1, -9, 1.5, 2.0, None])
    def test_bad_size(self, size):
        with pytest.raises(DomainError, match=_exactly(
                f"size must be an integer with 0 <= size <= 8, got {size!r}")):
            random_code(2, 3, size, seed=0)

    @pytest.mark.parametrize("q, n", [(2, 63), (3, 40), (2, 20000)])
    def test_space_beyond_the_sample_range(self, q, n):
        # random.sample takes a range of at most 2^63 - 1 indices
        with pytest.raises(ResourceBudgetError, match=rf"^q\^n = {q}\^{n} "):
            random_code(q, n, 3, seed=0)

    @pytest.mark.parametrize("q, n", [(2, 1), (2, 9), (2, 62), (3, 7),
                                      (5, 26), (7, 22), (300, 2), (1000, 6)])
    def test_equals_make_code(self, q, n):
        # q^n <= 2^62: built directly, the code is what make_code gives
        rng = random.Random(q * 100 + n)
        for _ in range(5):
            size = rng.randint(0, min(q ** n, 50))
            code = random_code(q, n, size, seed=rng.randrange(2 ** 30))
            again = make_code(q, n, code.words)
            assert type(code) is Code and code == again
            assert type(code.words) is tuple and code.size == size
            assert [type(w) for w in code.words] == [tuple] * size
            assert {type(s) for w in code.words for s in w} <= {int}

    @pytest.mark.parametrize("q, n", [(1, 3), (0, 3), (2.0, 3), ("3", 2),
                                      (2, 0), (2, -1), (2, 1.5), (3, None)])
    def test_bad_q_or_n_as_make_code(self, q, n):
        with pytest.raises(DomainError) as want:
            make_code(q, n, [])
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            random_code(q, n, 1, seed=0)


class TestSoundnessSweep:
    def test_small_sweep_passes(self):
        rep = eb_soundness_sweep(q_set=(2, 3), n_max=5)
        assert rep.passed
        assert rep.instances_checked > 0
        assert "skipped_precondition" in rep.payload

    def test_a_halved_bound_fails_at_the_first_solved_instance(
            self, monkeypatch):
        bound = eb_bounds._eb_rate_bound

        def halved(m, *args):
            res = bound(m, *args)
            return res._replace(rate_upper=res.rate_upper / 2)

        monkeypatch.setattr(eb_bounds, "_eb_rate_bound", halved)
        rep = eb_soundness_sweep(q_set=(2, 3), n_max=5)
        assert not rep.passed and rep.instances_checked == 1
        cx = rep.counterexample
        assert set(cx) == {"q", "n", "d", "A", "rate", "bound"}
        q, n, d = cx["q"], cx["n"], cx["d"]
        assert cx["A"] == max_code_size(q, n, d)[0]
        assert cx["rate"] == math.log(cx["A"]) / (n * math.log(q))
        assert cx["bound"] == bound(FLOAT, *_eb_inputs(
            BoundParams(q=q, n=n, d=d))).rate_upper / 2
        assert cx["rate"] > cx["bound"]

    def test_a_frozen_clock_changes_no_report(self, monkeypatch):
        # budgets of space, candidates and work decide which instances are
        # solved; a deadline that never passes changes nothing
        real = eb_soundness_sweep(q_set=(2, 3), n_max=7)
        monkeypatch.setattr(oracle.time, "monotonic", lambda: 0.0)
        assert eb_soundness_sweep(q_set=(2, 3), n_max=7) == real
        assert real.payload["skipped_resource"] > 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"q_set": ()}, "q_set must name at least one alphabet size"),
        ({"n_max": 1}, "n_max must be an integer >= 2, got 1"),
        ({"n_max": 0}, "n_max must be an integer >= 2, got 0"),
        ({"n_max": 7.0}, "n_max must be an integer >= 2, got 7.0"),
        ({"n_max": None}, "n_max must be an integer >= 2, got None"),
        ({"q_set": (1,)}, "q must be an integer >= 2, got 1"),
        ({"q_set": (2, True)}, "q must be an integer >= 2, got True")],
        ids=["empty-q_set", "n_max-1", "n_max-0", "n_max-float", "n_max-None",
             "q_set-1", "q_set-bool"])
    def test_bad_arguments_raise_domain_error(self, kwargs, message):
        # a sweep over nothing must not read as a pass
        with pytest.raises(DomainError, match=re.escape(message)):
            eb_soundness_sweep(**kwargs)


class TestSerialization:
    def test_round_trip(self):
        code = random_code(3, 5, 12, seed=3)
        code.min_distance()
        text = serialize_code(code)
        back = parse_code(text)
        assert back.words == code.words
        assert serialize_code(back) == text

    @pytest.mark.parametrize("q", [2, 10, 11, 256, 300])
    def test_round_trip_every_alphabet(self, q):
        code = make_code(q, 3, [(0, 0, 0), (q - 1, q - 1, q - 1),
                                (1, q // 2, q - 1), (q - 1, 0, 1)])
        text = serialize_code(code)
        assert parse_code(text) == code
        word = text.splitlines()[2]
        assert word == (" ".join if q > 10 else "".join)(
            str(s) for s in code.words[1])

    def test_header_format(self):
        size, witness = max_code_size(3, 4, 3)
        header = serialize_code(witness).splitlines()[0]
        assert header == "3 4 9 3"

    def test_singleton_header_d0(self):
        text = serialize_code(make_code(2, 3, [(1, 0, 1)]))
        assert text == "2 3 1 0\n101\n"

    def test_bad_header(self):
        with pytest.raises(DomainError):
            parse_code("nonsense\n")

    def test_distance_mismatch_detected(self):
        with pytest.raises(DomainError):
            parse_code("2 3 2 3\n000\n100\n")

    @pytest.mark.parametrize("text", ["2 3 2 0\n000\n111\n",
                                      "2 3 2 -4\n000\n111\n",
                                      "2 3 1 7\n000\n", "2 3 1 -1\n000\n"],
                             ids=["zero", "negative", "singleton-positive",
                                  "singleton-negative"])
    def test_header_distance_must_be_the_written_one(self, text):
        # serialize_code writes the minimum distance, or 0 when |C| < 2
        with pytest.raises(DomainError, match="header distance"):
            parse_code(text)

    @pytest.mark.parametrize("text", ["2 3 1 0\nab1\n", "11 2 1 0\n1 a\n",
                                      "11 2 1 0\n1,2\n"],
                             ids=["non-digit", "non-digit-q11",
                                  "separator-q11"])
    def test_bad_word_line(self, text):
        with pytest.raises(DomainError, match="malformed word line"):
            parse_code(text)
