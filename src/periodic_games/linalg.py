"""Exact linear algebra over Fractions, and the package's one integer kernel.

Only this module turns rationals into integers (``common_denominator`` and
``scaled``) and divides integers exactly (``pivot``, the fraction-free step
of Bareiss 1968 elimination and of Edmonds 1967 integer pivoting); ``lp``
and ``bayes`` use these helpers.

Desk-scale only: systems here have at most a handful of variables. Every
solve goes through ``rref``: each row is scaled to integers by the lcm of
its denominators and eliminated Gauss-Jordan with ``pivot``, so entries
stay integers, bounded by minors of the scaled matrix. Fractions are formed
once, when each pivot row is divided by its pivot at the end.

Vertex enumeration tries the column subsets of size at most the number of
equations, since a larger subset cannot have a unique solution.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[Fraction]]
Vector = tuple[Fraction, ...]


def common_denominator(values) -> int:
    """The lcm of the denominators of some rationals (ints count as n/1)."""
    return math.lcm(*(v.denominator for v in values))


def scaled(values, scale: int) -> list[int]:
    """Rationals times ``scale``, a multiple of each of their denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def pivot(rows: list[list[int]], r: int, c: int, det: int) -> int:
    """Fraction-free pivot on (r, c) in place; returns the new divisor.

    Row ``r`` stays as it is; every other row ``i`` becomes
    ``(p * rows[i] - rows[i][c] * rows[r]) / det`` with ``p = rows[r][c]``,
    and ``p`` is the ``det`` of the next step. When every entry is a minor
    of the integer data, as in Bareiss elimination and integer pivoting, the
    division is exact; a remainder would mean a broken kernel and raises
    ``ArithmeticError``.
    """
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if det == 1:
            rows[i] = [p * x - f * y for x, y in zip(row, top)]
            continue
        reduced = []
        for x, y in zip(row, top):
            q, rem = divmod(p * x - f * y, det)
            if rem:
                raise ArithmeticError(f"inexact division by {det} in an integer pivot step")
            reduced.append(q)
        rows[i] = reduced
    return p


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the row space unchanged, and eliminated with ``pivot``.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    # Zero rows stay zero and end up at the bottom; leave them out.
    m = [ints for ints in (scaled(row, common_denominator(row)) for row in matrix) if any(ints)]
    live = len(m)
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, live) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        det = pivot(m, r, c, det)
        pivots.append(c)
        r += 1
        if r == live:
            break
    zero = Fraction(0)
    out = [[Fraction(v, m[k][c]) if v else zero for v in m[k]] for k, c in enumerate(pivots)]
    out.extend([zero] * cols for _ in range(rows - r))
    return out, pivots


def solve_exact(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> tuple[str, Optional[Vector]]:
    """Solve ``a x = b`` exactly.

    Returns ('unique', x), ('none', None) for inconsistent systems, or
    ('many', particular_solution) when underdetermined.
    """
    n = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    if not aug:
        return ("many", tuple(Fraction(0) for _ in range(n)))
    reduced, pivots = rref(aug)
    if n in pivots:
        return ("none", None)  # pivot in augmented column: 0 = nonzero
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][-1]
    kind = "unique" if len(pivots) == n else "many"
    return (kind, tuple(x))


def matrix_rank(a: Sequence[Sequence[Fraction]]) -> int:
    if not a:
        return 0
    _, pivots = rref([list(row) for row in a])
    return len(pivots)


def polytope_vertices(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], n: int
) -> list[Vector]:
    """All vertices of {x in R^n : a x = b, x >= 0}, sorted lexicographically.

    Enumerates support subsets; a support yields a vertex iff the restricted
    system has a unique nonnegative solution, which needs no more columns
    than there are equations. Intended for n <= ~8.
    """
    vertices: set[Vector] = set()
    for size in range(1, min(n, len(a)) + 1):
        for support in itertools.combinations(range(n), size):
            sub = [[row[j] for j in support] for row in a]
            kind, sol = solve_exact(sub, b)
            if kind != "unique" or sol is None:
                continue
            if any(v < 0 for v in sol):
                continue
            full = [Fraction(0)] * n
            for j, v in zip(support, sol):
                full[j] = v
            vertices.add(tuple(full))
    return sorted(vertices)


def affine_dimension(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    if not diffs:
        return 0
    return matrix_rank(diffs)
