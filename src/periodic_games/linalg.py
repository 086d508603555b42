"""Exact linear algebra over Fractions, and the package's one integer kernel.

Only this module turns rationals into integers (``integer_column``),
combines their scales (``common_scale``) and divides integers exactly
(``pivot``, the fraction-free step of Bareiss 1968 elimination and of
Edmonds 1967 integer pivoting); ``game`` (each player's integer payoff
view), ``lp``, ``bayes``, ``coco`` and ``mixed`` use these helpers.

``exchange`` is the one dictionary pivot, as in lrs: ``pivot``, then the
leaving variable's column written where the entering one was. The simplex
of ``lp`` and the best-response polytope walk of ``mixed`` (Nash
equilibria) both step with it.

Desk-scale only: systems here have at most a handful of variables. Each row
is scaled to integers by the lcm of its denominators and eliminated
Gauss-Jordan with ``pivot`` (``_eliminate``), so entries stay integers,
bounded by minors of the scaled matrix. Fractions are formed once, when a
pivot row is divided by its pivot at the end. ``solve_square`` forms none:
it eliminates forward only, with the same ``pivot`` on the rows below each
pivot row (half the rows Gauss-Jordan reduces), back-substitutes in
integers and hands ``lp`` a square system's solution as integers over one
denominator.

Vertex enumeration (``polytope_vertices``, for periodic mixtures)
eliminates ``[a | b]`` once and solves only the bases: the column subsets
of size rank(a), on the rank(a) independent rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import SizeLimit

# The most work ``polytope_vertices`` takes on in one call, counted per
# basis of rank r as n + r^3 + r^5 / 64: an integer solve of r^3 steps
# whose entries grow with r (the r^5 term leads past r = 8), and the n
# entries of a vertex. A unit measured 0.15-0.7 us raw over ranks 1-125
# (CPython 3.11, a 2 GHz Xeon vCPU). More is a SizeLimit, raised before any
# solve. A 1001x1 game's periodic mixture needs about 1e6. At this bound,
# random integer systems of ranks 1-41 took at most 1.3 s raw (ranks 1-4,
# 27-1413 columns).
MAX_WORK = 2_000_000

Matrix = list[list[Fraction]]
Vector = tuple[Fraction, ...]


def integer_column(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals (an int counts as n/1) times the lcm of their denominators,
    and that lcm: the one way the package turns rationals into integers."""
    scale = math.lcm(*map(operator.attrgetter("denominator"), values))
    if scale == 1:  # every value is an integer
        return list(map(operator.attrgetter("numerator"), values)), 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def common_scale(scales: Iterable[int]) -> int:
    """The lcm of positive int scales, over which integers of each combine."""
    return math.lcm(*scales)


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
        reduced = []
        for x, y in zip(row, top):
            q, rem = divmod(p * x - f * y, det)
            if rem:
                raise ArithmeticError(f"inexact division by {det} in an integer pivot step")
            reduced.append(q)
        rows[i] = reduced
    return p


def exchange(rows: list[list[int]], r: int, c: int, det: int) -> int:
    """One dictionary pivot, as in lrs; returns the new divisor.

    ``rows`` hold one column per nonbasic variable (and any further columns,
    such as a right-hand side), all over the divisor ``det``, with the basic
    variable of row ``r`` leaving and the nonbasic variable of column ``c``
    entering. ``pivot`` on (r, c) turns the leaving variable's implicit
    column ``det * e_r`` into ``det`` in row ``r`` and ``-rows[i][c]``
    elsewhere; that column is written where the entering one was.
    """
    column = [row[c] for row in rows]
    next_det = pivot(rows, r, c, det)
    for i, row in enumerate(rows):
        row[c] = det if i == r else -column[i]
    return next_det


def _integer_rows(matrix) -> list[list[int]]:
    """Each row scaled to integers by the lcm of its denominators, which
    leaves the row space unchanged; zero rows are left out."""
    return [ints for ints, _ in map(integer_column, matrix) if any(ints)]


def _eliminate(m: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of integer rows in place with ``pivot``,
    over the first ``cols`` columns; returns the pivot columns.

    Row k ends up holding the k-th pivot, and every pivot entry equals the
    last pivot, a minor of the input.
    """
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        det = pivot(m, r, c, det)
        pivots.append(c)
        if r + 1 == len(m):
            break
    return pivots


def solve_square(a: list[list[int]], b: list[int]) -> Optional[tuple[list[int], int]]:
    """The solution of a square integer system ``a x = b``, as numerators
    over one positive denominator, or None when ``a`` is singular; a 0x0
    system has the solution ``([], 1)``.

    Bareiss elimination of ``[a | b]``, forward only: ``pivot`` reduces the
    rows below each pivot row, with the row swaps of ``_eliminate``, so the
    last pivot ``d`` is the same minor. Then ``X = d x`` is an integer
    vector (Cramer), found from the last row up as
    ``X_i = (d u_ik - sum_{i<j<k} u_ij X_j) / u_ii`` over the triangular
    rows ``u`` of ``[a | b]``; each division is exact, and a remainder
    raises ``ArithmeticError``.
    """
    k = len(a)
    rows = [row + [v] for row, v in zip(a, b)]
    upper = []
    det = 1
    for c in range(k):
        r = next((i for i, row in enumerate(rows) if row[c]), None)
        if r is None:
            return None
        rows[0], rows[r] = rows[r], rows[0]
        det = pivot(rows, 0, c, det)
        upper.append(rows.pop(0))
    xs = [0] * k
    for i in reversed(range(k)):
        row = upper[i]
        known = sum(map(operator.mul, row[i + 1 : k], xs[i + 1 :]))
        xs[i], rem = divmod(det * row[k] - known, row[i])
        if rem:
            raise ArithmeticError(f"inexact division by {row[i]} in an integer back substitution step")
    if det < 0:
        return [-v for v in xs], -det
    return xs, det


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    # Zero rows stay zero and end up at the bottom.
    m = _integer_rows(matrix)
    pivots = _eliminate(m, cols)
    zero = Fraction(0)
    out = [[Fraction(v, m[k][c]) if v else zero for v in m[k]] for k, c in enumerate(pivots)]
    out.extend([zero] * cols for _ in range(rows - len(pivots)))
    return out, pivots


def solve_exact(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> tuple[str, Optional[Vector]]:
    """Solve ``a x = b`` exactly.

    Returns ('unique', x), ('none', None) for inconsistent systems, or
    ('many', particular_solution) when underdetermined.
    """
    n = len(a[0]) if a else 0
    m = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    pivots = _eliminate(m, n + 1)
    if n in pivots:
        return ("none", None)  # pivot in augmented column: 0 = nonzero
    # Only the right-hand side of each pivot row is divided out.
    x = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        x[c] = Fraction(m[k][-1], m[k][c])
    status = "unique" if len(pivots) == n else "many"
    return (status, tuple(x))


def matrix_rank(a: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(a)[1])


def polytope_vertices(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], n: int
) -> list[Vector]:
    """All vertices of {x in R^n : a x = b, x >= 0}, sorted lexicographically.

    ``a`` and ``b`` hold Fractions or ints. One elimination of the integer
    rows of ``[a | b]`` gives the rank r of ``a`` and r independent integer
    rows, or shows the system inconsistent (no vertex). Every vertex is
    the basic solution of a basis, r columns independent on those rows,
    with x zero off them: its support is independent, so it extends to such
    a basis. Only the r-column subsets are solved, and a degenerate vertex
    that several bases reach is kept once. A system of rank 0 has no basis
    and no vertex. More than ``MAX_WORK`` estimated work is a SizeLimit.
    """
    rows = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    pivots = _eliminate(rows, n + 1)
    if not pivots or pivots[-1] == n:  # rank 0, or a row reading 0 = nonzero
        return []
    r = len(pivots)
    work = math.comb(n, r) * (n + r**3 + r**5 // 64)
    if work > MAX_WORK:
        raise SizeLimit(
            f"vertex enumeration of {math.comb(n, r)} bases of rank {r} would take"
            f" {work} work units, more than {MAX_WORK}"
        )
    rows = rows[:r]
    rhs = [row[-1] for row in rows]
    zero = Fraction(0)
    vertices: set[Vector] = set()
    for basis in itertools.combinations(range(n), r):
        status, solution = solve_exact([[row[j] for j in basis] for row in rows], rhs)
        # A Fraction has the sign of its numerator.
        if status != "unique" or any(v.numerator < 0 for v in solution):
            continue
        full = [zero] * n
        for j, v in zip(basis, solution):
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
