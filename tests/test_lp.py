from fractions import Fraction

import pytest

from periodic_games import lp
from periodic_games.errors import BadParameter, CertificateError
from periodic_games.linalg import (
    affine_dimension,
    matrix_rank,
    pivot,
    polytope_vertices,
    solve_exact,
)
from periodic_games.lp import SimplexInternalError, simplex_max, zero_sum_value

from conftest import simplex_fractions

F = Fraction


class Index(int):
    """An int subclass other than bool: exact, so it passes the entry checks."""


class Ratio(Fraction):
    """A Fraction subclass: exact too."""


def test_solve_exact_unique():
    status, x = solve_exact([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert status == "unique"
    assert x == (F(2), F(1))


def test_solve_exact_inconsistent():
    status, x = solve_exact([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert status == "none" and x is None


def test_solve_exact_underdetermined():
    status, _ = solve_exact([[F(1), F(1)]], [F(1)])
    assert status == "many"


def test_matrix_rank():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def test_polytope_vertices_simplex():
    # {p >= 0, p1 + p2 = 1} has exactly the two unit vertices.
    vertices = polytope_vertices([[F(1), F(1)]], [F(1)], 2)
    assert vertices == [(F(0), F(1)), (F(1), F(0))]
    assert affine_dimension(vertices) == 1


def test_polytope_vertices_point():
    vertices = polytope_vertices(
        [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)], 2
    )
    assert vertices == [(F(1, 2), F(1, 2))]
    assert affine_dimension(vertices) == 0


def test_simplex_max_basic():
    # max x + y subject to x <= 2, y <= 3, x + y <= 4.
    value, x, _ = simplex_fractions(
        simplex_max(
            [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
            [F(2), F(3), F(4)],
            [F(1), F(1)],
        )
    )
    assert value == 4
    assert sum(x) == 4


def test_zero_sum_saddle():
    # Matching pennies: value 0, both mix evenly.
    value, row, col = zero_sum_value([[F(1), F(-1)], [F(-1), F(1)]])
    assert value == 0
    assert row == (F(1, 2), F(1, 2))
    assert col == (F(1, 2), F(1, 2))


def test_zero_sum_pure_saddle():
    matrix = [[F(3), F(5)], [F(2), F(1)]]
    value, row, col = zero_sum_value(matrix)
    assert value == 3
    for c in range(2):
        assert sum(row[r] * matrix[r][c] for r in range(2)) >= value
    for r in range(2):
        assert sum(col[c] * matrix[r][c] for c in range(2)) <= value


def test_zero_sum_shift_invariance():
    matrix = [[F(0), F(-4)], [F(-6), F(-2)]]
    shifted = [[v + 10 for v in row] for row in matrix]
    value, _, _ = zero_sum_value(matrix)
    shifted_value, _, _ = zero_sum_value(shifted)
    assert shifted_value == value + 10


def test_simplex_max_duals_and_scaled_inputs():
    # max (2x + 3y) / 5 subject to (x + y) / 2 <= 2, (x + 3y) / 3 <= 2:
    # optimum (3, 1); the duals of x + y <= 4, x + 3y <= 6 are (3/2, 1/2).
    value, x, y = simplex_fractions(
        simplex_max([[F(1, 2), F(1, 2)], [F(1, 3), F(1)]], [F(2), F(2)], [F(2, 5), F(3, 5)])
    )
    assert value == F(9, 5)
    assert x == (F(3), F(1))
    assert y == (F(3, 5), F(3, 10))
    assert sum(yi * bi for yi, bi in zip(y, [F(2), F(2)])) == value


def test_simplex_max_rejects_negative_rhs():
    with pytest.raises(BadParameter, match="b >= 0"):
        simplex_max([[F(1)]], [F(-1)], [F(1)])


@pytest.mark.parametrize(
    "a, b, c",
    [
        ([[1, 2], [3]], [1, 1], [1, 1]),  # ragged a
        ([[1, 2]], [1], [1]),  # a row longer than c
        ([[1], [2]], [1], [1]),  # b shorter than a
        ([[1]], [1, 1], [1]),  # b longer than a
        ([[1.5]], [1], [1]),
        ([[1]], [True], [1]),
        ([[1]], [1], [F(1), 0.5]),
        ([[1]], ["1"], [1]),
        ([[Index(1)]], [1], [1.0]),
    ],
)
def test_simplex_max_rejects_mismatched_shapes_and_non_rational_entries(a, b, c):
    with pytest.raises(BadParameter):
        simplex_max(a, b, c)


def test_simplex_max_reports_unbounded_objective_as_certificate_error():
    with pytest.raises(SimplexInternalError, match="unbounded"):
        simplex_max([[F(-1)]], [F(1)], [F(1)])


@pytest.mark.parametrize(
    "basis",
    [([], []), ([0], [0]), ([1], [0]), ([0, 1], [0, 0])],
    ids=["all-slack", "a negative reduced cost", "a negative slack", "singular"],
)
def test_a_wrong_basis_from_blands_rule_is_a_certificate_error(monkeypatch, basis):
    # max 2x + 3y subject to x + y <= 4, x + 3y <= 6 has the one optimal
    # basis ([0, 1], [0, 1]). With the guess off, the reader checks the
    # basis the pivot loop returns in integers, under python -O too.
    a, b, c = [[1, 1], [1, 3]], [4, 6], [2, 3]
    monkeypatch.setattr(lp, "_float_support", lambda tableau: None)
    monkeypatch.setattr(lp, "_pivot_loop", lambda tableau: ([0, 1], [0, 1]))
    assert simplex_fractions(simplex_max(a, b, c)) == (F(9), (F(3), F(1)), (F(3, 2), F(1, 2)))
    monkeypatch.setattr(lp, "_pivot_loop", lambda tableau: basis)
    with pytest.raises(SimplexInternalError, match="not optimal"):
        simplex_max(a, b, c)


def test_a_basis_and_its_transpose_over_two_denominators_is_a_certificate_error(monkeypatch):
    # The transposed solve returns the same rationals over twice the
    # denominator: the reader's one-denominator check raises a typed error,
    # under python -O too, on the guessed basis and on Bland's.
    solves = []
    solve = lp.solve_square

    def doubled(a, b):
        solves.append(a)
        xs, den = solve(a, b)
        return ([2 * v for v in xs], 2 * den) if len(solves) % 2 == 0 else (xs, den)

    monkeypatch.setattr(lp, "solve_square", doubled)
    for guessed in (True, False):
        if not guessed:
            monkeypatch.setattr(lp, "_float_support", lambda tableau: None)
        with pytest.raises(SimplexInternalError, match="a basis and its transpose have determinants"):
            simplex_max([[1, 1], [1, 3]], [4, 6], [2, 3])


ZERO = F(0)


@pytest.mark.parametrize(
    "a, b, c, expected",
    [
        ([], [], [1], "unbounded"),
        ([], [], [F(1, 2), -1], "unbounded"),
        ([], [], [-1], (ZERO, (ZERO,), ())),
        ([], [], [0, -2], (ZERO, (ZERO, ZERO), ())),
        ([], [], [], (ZERO, (), ())),
        ([[]], [1], [], (ZERO, (), (ZERO,))),
        ([[], []], [0, 3], [], (ZERO, (), (ZERO, ZERO))),
        ([[1, 1]], [1], [0, 0], (ZERO, (ZERO, ZERO), (ZERO,))),
        ([[0, 0]], [1], [0, 0], (ZERO, (ZERO, ZERO), (ZERO,))),
        ([[1, 2], [3, 4]], [0, 5], [0, 0], (ZERO, (ZERO, ZERO), (ZERO, ZERO))),
        ([[1, 1]], [0], [1, 1], (ZERO, (ZERO, ZERO), (F(1),))),
        ([[0]], [0], [1], "unbounded"),
        ([[1, 0]], [1], [0, 1], "unbounded"),
    ],
)
def test_simplex_max_on_lps_with_no_rows_zero_costs_or_a_zero_rhs(monkeypatch, a, b, c, expected):
    # With the float guess on and off: no row, no column, zero costs and a
    # zero right-hand side each give the zero result or an unbounded column.
    for guessed in (True, False):
        if not guessed:
            monkeypatch.setattr(lp, "_float_support", lambda tableau: None)
        if expected == "unbounded":
            with pytest.raises(SimplexInternalError, match="objective unbounded"):
                simplex_max(a, b, c)
        else:
            assert simplex_fractions(simplex_max(a, b, c)) == expected


@pytest.mark.parametrize(
    "matrix",
    [[], [[]], [[F(1), F(2)], [F(3)]], [[F(1), 0.5]], [[F(1)], [True]], [[False, 2]], [["1", 2]], [[Index(1), True]]],
)
def test_zero_sum_value_rejects_empty_and_ragged_matrices(matrix):
    with pytest.raises(BadParameter):
        zero_sum_value(matrix)


def test_int_and_fraction_subclasses_pass_the_entry_checks():
    matrix = [[Index(2), Ratio(-1, 2)], [Index(0), Ratio(3)]]
    assert zero_sum_value(matrix) == zero_sum_value([[F(v) for v in row] for row in matrix])
    assert simplex_max([[Index(1)]], [Ratio(1)], [Index(1)]) == simplex_max([[1]], [F(1)], [1])


def test_simplex_internal_error_is_a_typed_certificate_error():
    assert issubclass(SimplexInternalError, CertificateError)
    assert not issubclass(SimplexInternalError, AssertionError)


def test_pivot_raises_on_inexact_division():
    # (2 * 1 - 1 * 1) / 3 leaves a remainder: no integer tableau gives this.
    tableau = [[2, 1], [1, 1]]
    with pytest.raises(ArithmeticError, match="inexact division"):
        pivot(tableau, 0, 0, 3)


@pytest.mark.parametrize(
    "check",
    [
        pytest.param("primal and dual", id="primal and dual"),
        pytest.param("row strategy", id="row strategy"),
        pytest.param("column strategy", id="column strategy"),
        pytest.param("column strategy is not a distribution", id="total off sum(w)"),
        pytest.param("row strategy is not a distribution", id="negative row entry"),
    ],
)
def test_zero_sum_value_certificate_failures_are_typed(monkeypatch, check):
    matrix = [[F(3), F(-1)], [F(-2), F(4)]]
    true_simplex = lp.simplex_max

    def broken(a, b, c):
        total, w, y, den = true_simplex(a, b, c)
        if check == "primal and dual":
            return total, w, tuple(2 * v for v in y), den
        if check == "row strategy":  # a pure row mixture cannot hold the value
            return total, w, (sum(y), 0), den
        if check == "column strategy is not a distribution":
            return 2 * total, w, y, den
        if check == "row strategy is not a distribution":  # same sum, one entry < 0
            return total, w, (2 * sum(y), -sum(y)), den
        return total, (sum(w), 0), y, den

    monkeypatch.setattr(lp, "simplex_max", broken)
    with pytest.raises(SimplexInternalError, match=check):
        zero_sum_value(matrix)
