"""Exact simplex on an integer tableau, and the zero-sum matrix game value.

``simplex_max`` scales ``a`` and ``b`` by one lcm of their denominators and
``c`` by the lcm of its own (``linalg.common_denominator`` and
``linalg.scaled``), then pivots on an integer tableau that shares one
positive denominator ``det`` with ``linalg.pivot``, the fraction-free step
that ``rref`` also uses (integer pivoting, as in Edmonds 1967 and Avis's
lrs). Every entry stays an integer, a minor of the scaled data, so each
division by ``det`` is exact. Fractions are formed once, from the final
tableau.

The tableau is a dictionary, as in lrs: one column per nonbasic variable
plus the right-hand side, since each basic column would only be ``det``
times a unit vector. A pivot runs ``linalg.pivot`` on these columns, then
writes the leaving variable's column where the entering one was.

The pivot rule is Bland's rule over variable indices: of the variables with
a negative reduced cost, the smallest enters, and the ratio test, done by
cross-multiplication, breaks ties by the smallest basis variable. Positive
scaling of the data changes no pivot, so the results equal those of the
textbook Fraction tableau. ``zero_sum_value`` re-checks its duality
certificate in integers before it returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BadParameter, CertificateError
from .linalg import common_denominator, pivot, scaled

Vector = tuple[Fraction, ...]


class SimplexInternalError(CertificateError):
    """Strong duality or feasibility check failed; indicates a solver bug."""


def simplex_max(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[Fraction, Vector, Vector]:
    """Maximize c.x subject to a x <= b, x >= 0, with all b >= 0.

    Entries may be Fractions or ints. Returns (optimal value, primal x,
    dual y). The all-slack basis is feasible because b >= 0; the objective
    must be bounded on the feasible region (always the case for the game
    LPs built here).
    """
    m = len(a)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise BadParameter("simplex_max requires b >= 0")
    scale_ab = common_denominator([v for row in a for v in row] + list(b))
    scale_c = common_denominator(c)
    # One column per nonbasic variable, then the rhs; the last row is the
    # objective.
    scaled_b = scaled(b, scale_ab)
    tableau = [scaled(a[i], scale_ab) + [scaled_b[i]] for i in range(m)]
    tableau.append([-v for v in scaled(c, scale_c)] + [0])
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    det = 1

    while True:
        objective = tableau[-1]
        # Bland: the negative reduced cost of the smallest variable enters.
        entering = min(
            (j for j in range(n) if objective[j] < 0), key=nonbasic.__getitem__, default=None
        )
        if entering is None:
            break
        # Ratio test rhs_i / coef_i by cross-multiplication (coefficients are
        # positive), ties broken by smallest basis variable (Bland).
        leaving = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef <= 0:
                continue
            if leaving is None:
                leaving = i
                continue
            lhs = tableau[i][-1] * tableau[leaving][entering]
            rhs = tableau[leaving][-1] * coef
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                leaving = i
        if leaving is None:
            raise SimplexInternalError("objective unbounded")
        column = [row[entering] for row in tableau]
        next_det = pivot(tableau, leaving, entering, det)
        # The entering column becomes the leaving variable's: pivoting turns
        # its det * e_leaving into det in the pivot row and -column[i] elsewhere.
        for i, row in enumerate(tableau):
            row[entering] = det if i == leaving else -column[i]
        det = next_det
        nonbasic[entering], basis[leaving] = basis[leaving], nonbasic[entering]

    # The scaled LP has the same x; its duals are scale_c / scale_ab times
    # the original ones and its value is scale_c times the original one. The
    # dual y_i is the reduced cost of slack n + i, and 0 while it is basic.
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], det)
    y = [Fraction(0)] * m
    for j, var in enumerate(nonbasic):
        if var >= n:
            y[var - n] = Fraction(objective[j] * scale_ab, det * scale_c)
    value = Fraction(objective[-1], det * scale_c)
    return value, tuple(x), tuple(y)


def zero_sum_value(matrix: Sequence[Sequence[Fraction]]) -> tuple[Fraction, Vector, Vector]:
    """Exact minimax value of a zero-sum matrix game (row player maximizes).

    Entries must be Fractions or ints, not bools, as in a mixture; anything
    else is a BadParameter. Returns (value, optimal row mixture, optimal
    column mixture). Strong duality (row maximin == column minimax)
    is re-checked against every pure response before returning.
    """
    rows = len(matrix)
    if rows == 0 or len(matrix[0]) == 0:
        raise BadParameter("empty payoff matrix")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise BadParameter("ragged payoff matrix")
    if not all(isinstance(v, (Fraction, int)) and not isinstance(v, bool) for row in matrix for v in row):
        raise BadParameter("payoff matrix entries must be Fractions or ints")
    scale = common_denominator([v for row in matrix for v in row])
    ints = [scaled(row, scale) for row in matrix]

    # Shift all entries to at least 1 so the value is > 0 and the LP below is
    # sound. In units of 1/scale the shift 1 - min(m) is an integer.
    shift = scale - min(min(row) for row in ints)
    shifted = [[v + shift for v in row] for row in ints]

    # Column player's normalized LP: max sum(w) s.t. shifted w <= 1, w >= 0,
    # here with both sides times scale, which changes no pivot.
    total, w, y = simplex_max(shifted, [scale] * rows, [1] * cols)
    if total <= 0:
        raise SimplexInternalError("normalized LP returned a nonpositive optimum")
    value_shifted = 1 / total
    col_strategy = tuple(wi * value_shifted for wi in w)
    dual_total = sum(y)
    if dual_total * scale != total:
        raise SimplexInternalError("primal and dual optima differ")
    row_strategy = tuple(yi / dual_total for yi in y)
    value = value_shifted - Fraction(shift, scale)

    # Certify: both mixtures are distributions, the row mixture guarantees
    # >= value against every column and the column mixture concedes <= value
    # against every row. The inequalities are checked in integers, multiplied
    # through by the positive common denominators.
    row_den = common_denominator(row_strategy)
    col_den = common_denominator(col_strategy)
    p = scaled(row_strategy, row_den)
    q = scaled(col_strategy, col_den)
    if min(p) < 0 or min(q) < 0 or sum(p) != row_den or sum(q) != col_den:
        raise SimplexInternalError("optimal strategies are not distributions")
    guaranteed = value.numerator * scale * row_den
    for j in range(cols):
        if sum(p[i] * ints[i][j] for i in range(rows)) * value.denominator < guaranteed:
            raise SimplexInternalError("row strategy fails to guarantee the value")
    conceded = value.numerator * scale * col_den
    for i in range(rows):
        if sum(v * qj for v, qj in zip(ints[i], q)) * value.denominator > conceded:
            raise SimplexInternalError("column strategy fails to guarantee the value")
    return value, row_strategy, col_strategy
