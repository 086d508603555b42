"""Exact simplex on an integer tableau, and the zero-sum matrix game value.

``simplex_max`` scales ``a`` and ``b`` by one lcm of their denominators and
``c`` by the lcm of its own (two calls of ``linalg.integer_column``), then
finds an optimal basis and reads the answer off it in integers: the value,
primal x and dual y as numerators over one positive denominator. No
``Fraction`` is formed.

Bland's rule pivots on an integer tableau that shares one positive
denominator ``det`` with ``linalg.pivot``, the fraction-free step that
``linalg``'s one forward elimination also takes, behind ``solve_square``
(integer pivoting, as in Edmonds 1967 and Avis's lrs).
Every entry stays an integer, a minor of the scaled data, so each division
by ``det`` is exact. The tableau is a dictionary, as in lrs: one column per
nonbasic variable plus the right-hand side, since each basic column would
only be ``det`` times a unit vector. A pivot is ``linalg.exchange``:
``linalg.pivot`` on these columns, then the leaving variable's column
written where the entering one was. ``mixed`` walks best-response polytopes
with the same step. Of the variables with a negative reduced cost, the
smallest enters, and the ratio test, done by cross-multiplication, breaks
ties by the smallest basis variable. Positive scaling of the data changes
no pivot, so the basis is that of the textbook Fraction tableau, and
Bland's rule cannot cycle.

Before pivoting, ``simplex_max`` guesses the optimal basis with a small
float simplex (``_float_support``). The guess is scale-free: each row is
divided by its right-hand side and each column by a power of two, the
objective by one more, all chosen from bit lengths and divided in integers
before any float is formed, so no float entry reaches 2 in size whatever
the size of the data. One reader, ``_read_basis``, solves a basis and its
transpose with ``linalg.solve_square`` and checks every margin in
integers. A guessed basis whose every margin is > 0 is the LP's only
optimal basis, which every simplex run ends at, Bland's rule among them, so
it is read with no pivot. Every other LP runs Bland's rule once from the
all-slack basis, and the same reader reads and checks its final basis.
Floats only pick which system to solve.

``zero_sum_value`` solves every LP to its optimum, checks its certificates
on ``simplex_max``'s integers and forms ``Fraction``s only for what it
returns.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadParameter, CertificateError
from .linalg import exchange, integer_column, solve_square

Vector = tuple[Fraction, ...]
Optimum = tuple[int, tuple[int, ...], tuple[int, ...], int]

# The float guess of ``_float_support``: a reduced cost or pivot entry within
# ``_TOLERANCE`` of 0 counts as 0, and it gives up after ``_FLOAT_PIVOTS``.
_TOLERANCE = 1e-9
_FLOAT_PIVOTS = 200


class SimplexInternalError(CertificateError):
    """Strong duality or feasibility check failed; indicates a solver bug."""


def _check_entries(values: list, what: str) -> None:
    """Fractions or ints, not bools, as in a mixture; else a BadParameter."""
    if set(map(type, values)) <= {Fraction, int}:  # exactly these types, at C speed
        return
    if not all(isinstance(v, (Fraction, int)) and not isinstance(v, bool) for v in values):
        raise BadParameter(f"{what} entries must be Fractions or ints")


def _pivot_loop(tableau: list[list[int]]) -> tuple[list[int], list[int]]:
    """Pivot ``tableau`` in place by Bland's rule from the all-slack basis to
    an optimum. Returns its basis as ``_float_support`` does: (the rows whose
    slack is nonbasic, the structural columns that are basic)."""
    m = len(tableau) - 1
    n = len(tableau[-1]) - 1
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    det = 1
    while True:
        objective = tableau[-1]
        entering = min((j for j in range(n) if objective[j] < 0), key=nonbasic.__getitem__, default=None)
        if entering is None:
            return sorted(v - n for v in nonbasic if v >= n), sorted(v for v in basis if v < n)
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
        det = exchange(tableau, leaving, entering, det)
        nonbasic[entering], basis[leaving] = basis[leaving], nonbasic[entering]


def _float_support(tableau: list[list[int]]) -> Optional[tuple[list[int], list[int]]]:
    """A floating-point guess at the optimal basis of the integer dictionary
    ``tableau``: (the rows whose slack is nonbasic, the structural columns
    that are basic), at a nondegenerate optimum the rows of positive dual
    and the columns of positive value. None when the guess gives up: no row
    or a zero right-hand side, an unbounded column or more than
    ``_FLOAT_PIVOTS`` pivots.

    It pivots a float copy of the data scaled in integers. Row i is divided
    by its right-hand side b_i and column j by 2**e_j, with e_j the largest
    bit_length(a_ij) - bit_length(b_i) over the rows, so that |a_ij| <
    b_i 2**(e_j + 1). Cost c_j is divided by 2**(e_j + e), with e the
    largest bit_length(c_j) - e_j, so that |c_j| < 2**(e_j + e). Each entry
    is then one int over another, which Python rounds correctly, and below
    2 in size: no entry overflows, and values and reduced costs compare
    with one tolerance whatever the scale of the data. An entry far smaller
    than its column's largest may round to 0; the integer check then
    rejects a wrong guess. Columns are priced by the most negative reduced
    cost per unit of l1 length, objective row included (normalized pricing
    in the style of steepest edge, Goldfarb and Reid 1977).
    """
    a, costs = tableau[:-1], tableau[-1]
    m, n = len(a), len(costs) - 1
    if not a or not all(row[-1] for row in a):
        return None
    columns = list(zip(*a))
    rhs = columns.pop()
    rhs_bits = list(map(int.bit_length, rhs))
    shifts = [max(map(operator.sub, map(int.bit_length, column), rhs_bits)) for column in columns]
    e = max(map(operator.sub, map(int.bit_length, costs), shifts), default=0)  # so each e_j + e >= 0
    # A column of entries all shorter than their b_i has e_j < 0; then every
    # numerator is shifted up by k, so that each denominator is an int.
    k = max(0, -min(shifts, default=0))
    numerators = [[v << k for v in row] for row in a] if k else a
    denominators = {b: [b << (e_j + k) for e_j in shifts] for b in set(rhs)}
    rows = [list(map(operator.truediv, row, denominators[b])) + [1.0] for row, b in zip(numerators, rhs)]
    rows.append(list(map(operator.truediv, costs, [1 << (e_j + e) for e_j in shifts])) + [0.0])
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    for _ in range(_FLOAT_PIVOTS):
        objective = rows[-1]
        candidates = [j for j in range(n) if objective[j] < -_TOLERANCE]
        if not candidates:
            return sorted(v - n for v in nonbasic if v >= n), sorted(v for v in basis if v < n)
        entering = min(candidates, key=lambda j: objective[j] / sum(abs(row[j]) for row in rows))
        ratios = [(rows[i][-1] / rows[i][entering], i) for i in range(m) if rows[i][entering] > _TOLERANCE]
        if not ratios:
            return None
        leaving = min(ratios)[1]
        p = rows[leaving][entering]
        pivot_row = [v / p for v in rows[leaving]]
        pivot_row[entering] = 1 / p
        for i, row in enumerate(rows):
            f = row[entering]
            if i != leaving and f:
                rows[i] = [v - f * w for v, w in zip(row, pivot_row)]
                rows[i][entering] = -f / p
        rows[leaving] = pivot_row
        nonbasic[entering], basis[leaving] = basis[leaving], nonbasic[entering]
    return None


def _read_basis(
    tableau: list[list[int]], basis: tuple[list[int], list[int]], scale_ab: int, scale_c: int
) -> Optional[tuple[Optimum, bool]]:
    """The LP's answer at ``basis`` (rows, columns), and whether it is the
    LP's only optimum; None when the basis is singular or not optimal.

    ``x`` solves the basis's rows with equality on its columns and ``y`` the
    transposed system with the costs, over one denominator: a matrix and its
    transpose have one determinant. The basis is optimal when every margin
    is >= 0 (x and y on the basis, the slack of every other row, the reduced
    cost of every other column), and the only optimal basis, which every
    simplex run ends at, Bland's rule among them, when every margin is > 0.
    """
    rows, cols = basis
    if len(rows) != len(cols):
        return None
    a = tableau[:-1]
    costs = [-v for v in tableau[-1][:-1]]
    primal = solve_square([[a[i][j] for j in cols] for i in rows], [a[i][-1] for i in rows])
    if primal is None:
        return None
    # The transposed matrix is nonsingular too.
    dual = solve_square([[a[i][j] for i in rows] for j in cols], [costs[j] for j in cols])
    (xs, det), (ys, dual_det) = primal, dual
    if dual_det != det:
        raise SimplexInternalError(f"a basis and its transpose have determinants {det} and {dual_det}")
    slacks = [
        a[i][-1] * det - sum(a[i][j] * v for j, v in zip(cols, xs))
        for i in set(range(len(a))).difference(rows)
    ]
    reduced = [
        sum(a[i][j] * v for i, v in zip(rows, ys)) - costs[j] * det
        for j in set(range(len(costs))).difference(cols)
    ]
    margin = min(xs + ys + slacks + reduced, default=1)
    if margin < 0:
        return None
    # The scaled LP has the same x; its duals are scale_c / scale_ab times
    # the original ones and its value is scale_c times the original one.
    x = [0] * len(costs)
    for j, v in zip(cols, xs):
        x[j] = v * scale_c
    y = [0] * len(a)
    for i, v in zip(rows, ys):
        y[i] = v * scale_ab
    value = sum(costs[j] * v for j, v in zip(cols, xs))
    return (value, tuple(x), tuple(y), det * scale_c), margin > 0


def simplex_max(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]
) -> Optimum:
    """Maximize c.x subject to a x <= b, x >= 0, with all b >= 0.

    Entries may be Fractions or ints, not bools; ``a`` has one row per entry
    of ``b`` and one column per entry of ``c``. Returns (value, x, y, den):
    the optimal value, primal x and dual y of Bland's rule, as integers over
    one positive denominator ``den``. The all-slack basis is feasible
    because b >= 0; the objective must be bounded on the feasible region
    (always the case for the game LPs built here).
    """
    m = len(a)
    n = len(c)
    if len(b) != m:
        raise BadParameter(f"simplex_max needs one b entry per row of a, got {len(b)} for {m}")
    if any(len(row) != n for row in a):
        raise BadParameter(f"simplex_max needs {n} entries in every row of a, one per entry of c")
    data = [v for row in a for v in row] + list(b)
    _check_entries(data + list(c), "simplex_max")
    if any(bi < 0 for bi in b):
        raise BadParameter("simplex_max requires b >= 0")
    ints, scale_ab = integer_column(data)
    costs, scale_c = integer_column(c)
    # One column per nonbasic variable, then the rhs; the last row is the
    # objective.
    tableau = [ints[i * n : (i + 1) * n] + [ints[m * n + i]] for i in range(m)]
    tableau.append([-v for v in costs] + [0])

    support = _float_support(tableau)
    guessed = support and _read_basis(tableau, support, scale_ab, scale_c)
    if guessed and guessed[1]:
        return guessed[0]
    pivoted = _read_basis(tableau, _pivot_loop([row[:] for row in tableau]), scale_ab, scale_c)
    if pivoted is None:
        raise SimplexInternalError("Bland's rule ended on a basis that is not optimal")
    return pivoted[0]


def zero_sum_value(matrix: Sequence[Sequence[Fraction]], *, scale: int = 1) -> tuple[Fraction, Vector, Vector]:
    """Exact minimax value of the zero-sum matrix game ``matrix / scale``
    (row player maximizes).

    Entries must be Fractions or ints, not bools, as in a mixture, and
    ``scale`` a positive int, not a bool; anything else is a BadParameter.
    An int matrix over ``scale`` gives the result of the matching Fraction
    matrix. Returns (value, optimal row mixture, optimal column mixture).
    Strong duality (row maximin == column minimax) is re-checked against
    every pure response before returning.
    """
    rows = len(matrix)
    if rows == 0 or len(matrix[0]) == 0:
        raise BadParameter("empty payoff matrix")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise BadParameter("ragged payoff matrix")
    entries = [v for row in matrix for v in row]
    _check_entries(entries, "payoff matrix")
    if type(scale) is not int or scale < 1:
        raise BadParameter(f"the scale of a payoff matrix must be a positive int, got {scale!r}")
    # The integers over the lcm of the values' denominators. A common factor
    # of these and the scale stays in: it scales the LP's a and b, which
    # changes no pivot of Bland's rule and so no result.
    flat, entry_scale = integer_column(entries)
    scale *= entry_scale
    ints = [flat[i * cols : (i + 1) * cols] for i in range(rows)]

    # Shift all entries to at least 1 so the value is > 0 and the LP below is
    # sound. In units of 1/scale the shift 1 - min(m) is an integer.
    shift = scale - min(min(row) for row in ints)
    shifted = [[v + shift for v in row] for row in ints]

    # Column player's normalized LP: max sum(w) s.t. shifted w <= 1, w >= 0,
    # here with both sides times scale, which changes no result.
    total, q, p, den = simplex_max(shifted, [scale] * rows, [1] * cols)
    if total <= 0:
        raise SimplexInternalError("normalized LP returned a nonpositive optimum")

    # Certify in integers: w = q / den, y = p / den and sum(w) = total / den.
    # The column mixture is q / total_q, the row mixture p / total_p and the
    # value conceded / (total_q * scale). Each mixture is a distribution that
    # concedes <= the value against every row, or guarantees >= it against
    # every column: in integers, times the positive total_q * scale, and
    # total_p for the rows.
    total_q = sum(q)
    if min(q) < 0 or total != total_q:
        raise SimplexInternalError("column strategy is not a distribution")
    conceded = den * scale - shift * total_q
    if any(sum(map(operator.mul, row, q)) > conceded for row in ints):
        raise SimplexInternalError("column strategy fails to guarantee the value")

    total_p = sum(p)
    if scale * total_p != total_q:
        raise SimplexInternalError("primal and dual optima differ")
    if min(p) < 0:  # total_p > 0 now, as total_q is
        raise SimplexInternalError("row strategy is not a distribution")
    if any(total_q * sum(map(operator.mul, p, column)) < conceded * total_p for column in zip(*ints)):
        raise SimplexInternalError("row strategy fails to guarantee the value")
    value = Fraction(conceded, total_q * scale)
    return value, tuple(Fraction(v, total_p) for v in p), tuple(Fraction(v, total_q) for v in q)
