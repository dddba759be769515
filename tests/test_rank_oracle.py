"""Orbit dimensions and dominance against ranks of explicit matrices.

X_lam is the direct sum of upper Jordan blocks of sizes lam, and B the
direct sum of antidiagonal blocks of the same sizes.  X_lam is
B-symmetric (X^T B = B X), and B is symmetric with B^2 = 1, so
so(B) = {A : A^T B + B A = 0} is {B S : S skew}.  The tangent space of
the O(B)-orbit of X_lam is the image of A -> AX - XA on so(B), whose
rank is the orbit dimension; the ranks of the powers of X_lam order the
orbits by dominance.  Every rank comes from Fraction elimination, so the
oracle shares no code with the closed formulas it checks.
"""

from fractions import Fraction

from symorbit.partitions import dominates, enumerate_partitions
from symorbit.strata import dim_orbit

N_MAX = 8


def _rank(rows: list[list[int]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / top[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def _block_sum(lam, block) -> list[list[int]]:
    """The direct sum over the parts p of lam of the 0/1 block whose
    ones sit at block(p)."""
    n = sum(lam)
    out = [[0] * n for _ in range(n)]
    start = 0
    for p in lam:
        for i, j in block(p):
            out[start + i][start + j] = 1
        start += p
    return out


def _jordan(lam):
    return _block_sum(lam, lambda p: [(i, i + 1) for i in range(p - 1)])


def _antidiagonal(lam):
    return _block_sum(lam, lambda p: [(i, p - 1 - i) for i in range(p)])


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _so(b):
    """B times each elementary skew matrix E_ij - E_ji, i < j: a basis of so(B)."""
    n = len(b)
    for i in range(n):
        for j in range(i + 1, n):
            skew = [[0] * n for _ in range(n)]
            skew[i][j], skew[j][i] = 1, -1
            yield _mul(b, skew)


def test_orbit_dimension_is_bracket_rank():
    for n in range(1, N_MAX + 1):
        for lam in enumerate_partitions(n):
            x, b = _jordan(lam), _antidiagonal(lam)
            assert _mul(_transpose(x), b) == _mul(b, x), lam
            images = []
            for a in _so(b):
                assert _mul(_transpose(a), b) == [[-v for v in row] for row in _mul(b, a)]
                ax, xa = _mul(a, x), _mul(x, a)
                images.append([p - q for row_p, row_q in zip(ax, xa)
                               for p, q in zip(row_p, row_q)])
            assert _rank(images) == dim_orbit(lam), lam


def test_dominance_is_power_rank_order():
    for n in range(1, N_MAX + 1):
        parts = enumerate_partitions(n)
        ranks = {}
        for lam in parts:
            x = power = _jordan(lam)
            ranks[lam] = []
            for _ in range(n):
                ranks[lam].append(_rank(power))
                power = _mul(power, x)
        for lam in parts:
            for mu in parts:
                expected = all(a >= b for a, b in zip(ranks[lam], ranks[mu]))
                assert dominates(lam, mu) == expected, (lam, mu)
