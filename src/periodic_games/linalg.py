"""Exact linear algebra helpers over Fractions.

Desk-scale only: systems here have at most a handful of variables. Every
solve goes through one elimination kernel, ``rref``. It scales each row to
integers by the lcm of its denominators and runs fraction-free Gauss-Jordan
elimination with Bareiss exact division (Bareiss 1968), so intermediate
entries stay integers, bounded by minors of the scaled matrix. Fractions
are formed once, when each pivot row is divided by its pivot at the end.

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


def _integer_rows(matrix: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators; the row space is unchanged."""
    out = []
    for row in matrix:
        scale = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    After each pivot step every entry is a minor of the integer-scaled
    matrix, so the division by the previous pivot is exact; a remainder
    would mean a broken kernel and raises ``ArithmeticError``.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    # Zero rows stay zero and end up at the bottom; leave them out.
    m = [row for row in _integer_rows(matrix) if any(row)]
    live = len(m)
    pivots: list[int] = []
    previous = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, live) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pivot = top[c]
        for i in range(live):
            if i == r:
                continue
            factor = m[i][c]
            if previous == 1:
                m[i] = [pivot * x - factor * y for x, y in zip(m[i], top)]
                continue
            reduced = []
            for x, y in zip(m[i], top):
                q, rem = divmod(pivot * x - factor * y, previous)
                if rem:
                    raise ArithmeticError(f"inexact division by pivot {previous} in rref")
                reduced.append(q)
            m[i] = reduced
        previous = pivot
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
