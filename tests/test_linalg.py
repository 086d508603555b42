"""The one rational-to-integer scaling (``integer_column`` and
``common_scale``) against Fraction arithmetic. Vertex enumeration by bases:
``polytope_vertices`` eliminates ``[a | b]`` once and solves only the
column subsets of size rank(a). Edge cases of that reduction, and a
comparison with the search over every column subset on systems wider than
the kernel oracle in ``test_oracles.py`` reaches. ``solve_square`` against
``solve_exact``, its work and its exactness check."""

import itertools
import random
from fractions import Fraction

import pytest

from periodic_games import linalg
from periodic_games.errors import SizeLimit
from periodic_games.linalg import common_scale, integer_column, pivot, polytope_vertices, solve_exact, solve_square

F = Fraction


class Count(int):
    pass


class Ratio(Fraction):
    pass


def reference_scale(values):
    """The least positive int that makes every value an integer, by
    Fraction arithmetic: each value times the scale so far has the missing
    factor as its denominator."""
    scale = 1
    for v in values:
        scale *= (F(v) * scale).denominator
    return scale


def assert_integer_column(values):
    ints, scale = integer_column(values)
    assert scale == reference_scale(values)
    assert ints == [F(v) * scale for v in values]
    assert all(type(x) is int for x in ints) and type(scale) is int


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], ([], 1)),
        ([3, -4, 0], ([3, -4, 0], 1)),
        ([F(2), F(-6), 7], ([2, -6, 7], 1)),
        ([Count(5), Ratio(-3), True], ([5, -3, 1], 1)),
        ([F(1, 2), F(-2, 3), 5, F(7, 12)], ([6, -8, 60, 7], 12)),
        ([Ratio(1, 4), Count(3), F(-5, 6)], ([3, 36, -10], 12)),
    ],
    ids=["empty", "ints", "integer Fractions", "subclasses over 1", "mixed denominators", "subclasses over 12"],
)
def test_integer_column_scales_by_the_lcm_of_the_denominators(values, expected):
    assert integer_column(values) == expected
    assert_integer_column(values)


def test_integer_column_reads_repeated_objects_and_equal_ones_alike():
    half, third = F(1, 2), F(-1, 3)
    shared = [half, third, half, half, third, 4]
    apart = [F(1, 2), F(-1, 3), F(1, 2), F(2, 4), F(-2, 6), 4]
    assert integer_column(shared) == integer_column(apart) == ([3, -2, 3, 3, -2, 24], 6)
    assert integer_column((half,) * 5) == ([1] * 5, 2)


def _random_value(rng, pool, integers):
    """An int, an int subclass or an integer Fraction when ``integers``;
    else also a Fraction shared from ``pool``, a fresh one or a subclass."""
    kind = rng.randrange(3 if integers else 6)
    if kind < 3:
        return (int, Count, F)[kind](rng.randint(-9, 9))
    if kind == 3:
        return rng.choice(pool)
    if kind == 4:
        return F(rng.randint(-50, 50), rng.randint(1, 40))
    return Ratio(rng.randint(-9, 9), rng.randint(1, 9))


def test_integer_column_and_common_scale_match_fraction_arithmetic():
    rng = random.Random(25)
    pool = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(8)]
    for k in range(300):
        assert_integer_column([_random_value(rng, pool, k % 4 == 0) for _ in range(rng.randint(0, 12))])
        scales = [rng.randint(1, 60) for _ in range(rng.randint(0, 6))]
        assert common_scale(scales) == reference_scale([F(1, s) for s in scales])
        assert common_scale(iter(scales)) == common_scale(scales)
    assert common_scale([]) == 1


def all_subsets_vertices(a, b, n):
    """Every column subset of every size: a vertex is the unique,
    nonnegative solution on its subset, zero elsewhere."""
    vertices = set()
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            kind, sol = solve_exact([[row[j] for j in cols] for row in a], b)
            if kind == "unique" and all(v >= 0 for v in sol):
                full = [F(0)] * n
                for j, v in zip(cols, sol):
                    full[j] = v
                vertices.add(tuple(full))
    return sorted(vertices)


def test_inconsistent_system_has_no_vertex():
    assert polytope_vertices([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], 2) == []
    assert polytope_vertices([[F(0), F(0)]], [F(3)], 2) == []


def test_empty_system_has_no_vertex():
    assert polytope_vertices([], [], 3) == []
    assert polytope_vertices([[F(0)] * 3, [F(0)] * 3], [F(0), F(0)], 3) == []


def test_duplicated_zero_and_sum_rows_leave_the_vertices_unchanged():
    a = [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]]
    b = [F(1), F(0)]
    expected = [(F(0), F(0), F(1)), (F(1, 2), F(1, 2), F(0))]
    assert polytope_vertices(a, b, 3) == expected
    redundant = [
        a[0],
        [F(0)] * 3,
        [F(-2) * v for v in a[1]],  # a rescaled duplicate
        a[1],
        [x + y for x, y in zip(a[0], a[1])],  # the sum of two rows
        a[0],
    ]
    rhs = [b[0], F(0), F(0), b[1], b[0] + b[1], b[0]]
    assert polytope_vertices(redundant, rhs, 3) == expected


def test_rank_below_the_row_count():
    # Three equations of rank 2 on four columns: bases are column pairs.
    a = [[F(1), F(1), F(1), F(1)], [F(1), F(2), F(0), F(3)], [F(2), F(3), F(1), F(4)]]
    b = [F(1), F(1), F(2)]
    assert polytope_vertices(a, b, 4) == all_subsets_vertices(a, b, 4) == [
        (F(0), F(0), F(2, 3), F(1, 3)),
        (F(0), F(1, 2), F(1, 2), F(0)),
        (F(1), F(0), F(0), F(0)),
    ]


def test_degenerate_vertex_reached_by_several_bases_is_reported_once(monkeypatch):
    # (0, 0, 1) is the basic solution of bases {0, 2} and {1, 2}.
    a = [[F(1), F(1), F(1)], [F(1), F(-1), F(0)]]
    b = [F(1), F(0)]
    solved = []

    def recorded(sub, rhs):
        result = solve(sub, rhs)
        solved.append(result)
        return result

    solve = linalg.solve_exact
    monkeypatch.setattr(linalg, "solve_exact", recorded)
    assert polytope_vertices(a, b, 3) == [(F(0), F(0), F(1)), (F(1, 2), F(1, 2), F(0))]
    # One solve per basis of size rank 2, in combination order.
    assert solved == [
        ("unique", (F(1, 2), F(1, 2))),
        ("unique", (F(0), F(1))),
        ("unique", (F(0), F(1))),
    ]


def _redundant_system(rng):
    """A system on 6 or 7 columns with rows repeated, rescaled, summed or
    zero, often with the simplex row and a right-hand side a x0 for some
    x0 >= 0, so that many systems have vertices."""
    cols = rng.randint(6, 7)
    kind = rng.choice(("int", "binary", "rational"))

    def entry():
        if kind == "int":
            return F(rng.randint(-9, 9))
        if kind == "binary":
            return F(rng.randint(0, 1))
        return F(rng.randint(-12, 12), rng.randint(1, 12))

    a = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        a.insert(0, [F(1)] * cols)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        choice = rng.random()
        if choice < 0.4:
            scale = rng.choice((F(1), F(-2), F(1, 3)))
            a.append([scale * v for v in a[i]])
        elif choice < 0.8:
            a.append([x + y for x, y in zip(a[i], a[j])])
        else:
            a.append([F(0)] * cols)
    rng.shuffle(a)
    if rng.random() < 0.8:
        x0 = [F(rng.randint(0, 3)) if rng.random() < 0.5 else F(0) for _ in range(cols)]
        b = [sum(v * x for v, x in zip(row, x0)) for row in a]
    else:
        b = [entry() for _ in a]
    return a, b, cols


def test_bases_match_every_column_subset_on_wide_redundant_systems():
    rng = random.Random(1992)
    with_vertices = rank_deficient = 0
    for _ in range(300):
        a, b, n = _redundant_system(rng)
        vertices = polytope_vertices(a, b, n)
        assert vertices == all_subsets_vertices(a, b, n), (a, b)
        with_vertices += bool(vertices)
        rank_deficient += linalg.matrix_rank(a) < len(a)
    assert with_vertices > 150 and rank_deficient > 250


def test_more_work_than_the_bound_is_a_size_limit_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(linalg, "solve_exact", lambda a, b: solves.append(a) or solve_exact(a, b))
    # C(6, 3) = 20 bases of rank 3 at 6 + 27 + 243 // 64 = 36 units each.
    monkeypatch.setattr(linalg, "MAX_WORK", 720)

    def rank_three(n):
        return [[F(1)] * n, [F(k) for k in range(n)], [F(k * k) for k in range(n)]], [F(1)] * 3

    assert polytope_vertices(*rank_three(6), 6)
    assert len(solves) == 20
    solves.clear()
    with pytest.raises(SizeLimit, match="35 bases of rank 3 would take 1295 work units, more than 720"):
        polytope_vertices(*rank_three(7), 7)
    assert solves == []


def test_solve_square_matches_solve_exact_over_one_positive_denominator():
    rng = random.Random(2034)
    singular = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        b = [rng.randint(-9, 9) for _ in range(k)]
        status, x = solve_exact(a, b)
        solution = solve_square(a, b)
        if status != "unique":
            assert solution is None
            singular += 1
            continue
        numerators, den = solution
        assert den > 0 and all(type(v) is int for v in numerators + [den])
        assert tuple(F(v, den) for v in numerators) == x
    assert 10 < singular < 290


def test_solve_square_of_a_0x0_system_is_empty_over_1():
    assert solve_square([], []) == ([], 1)


def test_solve_square_eliminates_forward_only(monkeypatch):
    # Each pivot reduces only the rows below its pivot row: k(k-1)/2 rows
    # in all, where Gauss-Jordan elimination reduces k(k-1).
    reduced = []

    def counted(rows, r, c, det):
        reduced.append(len(rows) - 1)
        return pivot(rows, r, c, det)

    monkeypatch.setattr(linalg, "pivot", counted)
    rng = random.Random(1968)
    for k in range(1, 15):
        a = [[rng.randint(-3, 3) + 9 * (i == j) for j in range(k)] for i in range(k)]
        reduced.clear()
        assert solve_square(a, [rng.randint(-9, 9) for _ in range(k)]) is not None
        assert sum(reduced) == k * (k - 1) // 2, k


def test_solve_square_raises_on_a_wrong_back_substitution_divisor(monkeypatch):
    # 2 x = 1: the last pivot is 2 and X = 2 * 1 / 2; a pivot row whose
    # diagonal entry reads 3 leaves a remainder.
    def corrupted(rows, r, c, det):
        p = pivot(rows, r, c, det)
        rows[r][c] += 1
        return p

    monkeypatch.setattr(linalg, "pivot", corrupted)
    with pytest.raises(ArithmeticError, match="inexact division"):
        solve_square([[2]], [1])
