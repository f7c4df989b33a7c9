"""Perfect codes for the pigeonhole checks.  At its packing radius the
balls around a perfect code's words tile the space, so the pigeonhole
bound count q^n >= |C| V_q(n, e) is met with equality there."""

import functools
import itertools

from qbounds import make_code, oracle


def _linear_code(q, rows):
    """The code spanned over GF(q), q prime, by the generator ``rows``."""
    return make_code(q, len(rows[0]), (
        [sum(c * row[i] for c, row in zip(coeffs, rows)) % q
         for i in range(len(rows[0]))]
        for coeffs in itertools.product(range(q), repeat=len(rows))))


def _shifts(q, g, n):
    """Generator rows of the length-n cyclic code of polynomial g over
    GF(q), coefficients lowest degree first."""
    return [[0] * i + g + [0] * (n - len(g) - i) for i in range(n - len(g) + 1)]


# the [7, 4, 3]_2 and [15, 11, 3]_2 Hamming codes (cyclic, g(x) = 1 + x +
# x^3 and 1 + x + x^4), the [6, 4, 3]_5 Hamming code (its parity-check
# columns (1, 1), (1, 2), (1, 3), (1, 4), (1, 0), (0, 1) are the six points
# of PG(1, 5), so the generator is [I | -A^T]), the [4, 2, 3]_3 tetracode
# and the [11, 6, 5]_3 Golay code (g(x) = x^5 + x^4 - x^3 + x^2 - 1), each
# with its minimum distance
PERFECT = {
    "hamming": (2, _shifts(2, [1, 1, 0, 1], 7), 3),
    "hamming-15": (2, _shifts(2, [1, 1, 0, 0, 1], 15), 3),
    "hamming-5ary": (5, [[1, 0, 0, 0, 4, 4], [0, 1, 0, 0, 4, 3],
                         [0, 0, 1, 0, 4, 2], [0, 0, 0, 1, 4, 1]], 3),
    "tetracode": (3, [[1, 0, 1, 1], [0, 1, 1, 2]], 3),
    "golay": (3, _shifts(3, [2, 0, 1, 2, 1, 1], 11), 5),
}


@functools.cache
def _perfect_count(name):
    """``(code, e, count)``: a perfect code, its packing radius and the
    best-center count of ``pigeonhole_witness`` there."""
    q, rows, d = PERFECT[name]
    code = _linear_code(q, rows)
    assert code.min_distance() == d
    e = (d - 1) // 2
    return code, e, oracle.pigeonhole_witness(code, e)[1]


def pigeonhole_sides(name):
    """``(count q^n, |C| V_q(n, e))`` for the perfect code ``name`` at its
    packing radius, equal unless the count or the volume is off.  The
    volume is ``oracle.hamming_ball_volume``, looked up at each call as the
    pigeonhole suite does, so a patched volume shows here too."""
    code, e, count = _perfect_count(name)
    return (count * code.q ** code.n,
            code.size * oracle.hamming_ball_volume(code.q, code.n, e))
