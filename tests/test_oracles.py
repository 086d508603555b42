"""Differential tests of the integer elimination and pivoting kernels and of
Nash support enumeration against slow, independent reference implementations
kept here, plus metamorphic tests under positive payoff scaling."""

import itertools
import random
from fractions import Fraction

import pytest

from periodic_games import expected_utility, iesds, make_game, nash_support_enumeration
from periodic_games.linalg import polytope_vertices, rref, solve_exact
from periodic_games.lp import SimplexInternalError, simplex_max, zero_sum_value
from periodic_games.mixed import own_payoff_matrix
from periodic_games.rationalizability import DominanceMode

F = Fraction


def reference_rref(matrix):
    """Textbook Gauss-Jordan elimination over Fractions."""
    m = [[F(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_solve(a, b):
    n = len(a[0])
    reduced, pivots = reference_rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    if n in pivots:
        return ("none", None)
    x = [F(0)] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][-1]
    return ("unique" if len(pivots) == n else "many", tuple(x))


def reference_vertices(a, b, n):
    """Every column subset, uncapped, solved by the reference solver."""
    vertices = set()
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            kind, sol = reference_solve([[row[j] for j in support] for row in a], b)
            if kind == "unique" and all(v >= 0 for v in sol):
                full = [F(0)] * n
                for j, v in zip(support, sol):
                    full[j] = v
                vertices.add(tuple(full))
    return sorted(vertices)


def _random_system(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    kind = rng.choice(("int", "binary", "rational"))

    def entry():
        if kind == "int":
            return F(rng.randint(-9, 9))
        if kind == "binary":
            return F(rng.randint(0, 1))
        return F(rng.randint(-12, 12), rng.randint(1, 12))

    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.3:  # duplicated row, possibly rescaled
        i, j = rng.sample(range(rows), 2)
        scale = rng.choice((F(1), F(-2), F(1, 3)))
        a[i] = [scale * v for v in a[j]]
    if rows >= 3 and rng.random() < 0.3:  # a row that is the sum of two others
        i, j, k = rng.sample(range(rows), 3)
        a[i] = [x + y for x, y in zip(a[j], a[k])]
    b = [entry() for _ in range(rows)]
    return a, b


def test_kernel_matches_reference_on_random_systems():
    rng = random.Random(20050)
    for _ in range(2000):
        a, b = _random_system(rng)
        assert rref(a) == reference_rref(a), a
        assert solve_exact(a, b) == reference_solve(a, b), (a, b)
        if len(a[0]) <= 5:  # the reference tries all 2^n subsets
            assert polytope_vertices(a, b, len(a[0])) == reference_vertices(a, b, len(a[0])), (a, b)


def test_kernel_handles_zero_and_rank_deficient_matrices():
    zero = [[F(0)] * 3 for _ in range(2)]
    assert rref(zero) == (zero, [])
    assert rref([[F(2), F(4)], [F(1), F(2)]]) == ([[F(1), F(2)], [F(0), F(0)]], [0])
    assert rref([]) == ([], [])


def _is_best_response(matrix, own, opp):
    payoffs = [sum(row[b] * opp[b] for b in range(len(opp))) for row in matrix]
    return all(payoffs[a] == max(payoffs) for a, v in enumerate(own) if v > 0)


def reference_nash(g):
    """Support enumeration over every column subset, forcing zeros by equations.

    Vertices come from ``polytope_vertices``, which the kernel test above
    checks against the reference solver; only the subset search differs.
    """
    m_row, m_col = own_payoff_matrix(g, 0), own_payoff_matrix(g, 1)
    n_row, n_col = g.shape

    def supports(n):
        return [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]

    def candidates(matrix, own, opp, size):
        system = [[F(1) if b in opp else F(0) for b in range(size)]]
        system += [
            [matrix[a][b] - matrix[own[0]][b] if b in opp else F(0) for b in range(size)]
            for a in own[1:]
        ]
        system += [[F(int(b == c)) for b in range(size)] for c in range(size) if c not in opp]
        rhs = [F(1)] + [F(0)] * (len(system) - 1)
        return polytope_vertices(system, rhs, size)

    found = set()
    for sa in supports(n_row):
        for sb in supports(n_col):
            q_candidates = candidates(m_row, sa, sb, n_col)
            if not q_candidates:
                continue
            for p in candidates(m_col, sb, sa, n_row):
                for q in q_candidates:
                    if _is_best_response(m_row, p, q) and _is_best_response(m_col, q, p):
                        found.add((p, q))
    return sorted(found)


def _random_bimatrix(rng, rows, cols, binary):
    def entry():
        return rng.randint(0, 1) if binary else rng.randint(-9, 9)

    return make_game(
        ["R", "C"],
        [[f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)]],
        [[(entry(), entry()) for _ in range(cols)] for _ in range(rows)],
    )


def test_nash_matches_unrestricted_support_enumeration():
    rng = random.Random(7)
    # The oracle is slow on five actions (seconds for 5x5), so those shapes
    # come every 25th game; every third game is a degenerate {0,1} game.
    large = [(5, 5), (2, 5), (5, 3), (4, 5), (5, 5), (5, 2), (3, 5), (5, 4)]
    for k in range(200):
        if k % 25 == 24:
            rows, cols = large[k // 25]
        else:
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        g = _random_bimatrix(rng, rows, cols, binary=k % 3 == 0)
        equilibria = nash_support_enumeration(g)
        assert [(e.row_strategy, e.col_strategy) for e in equilibria] == reference_nash(g)
        for e in equilibria:
            assert e.utilities == expected_utility(g, (e.row_strategy, e.col_strategy))


class Unbounded(Exception):
    pass


def reference_simplex(a, b, c):
    """Textbook Bland simplex on a Fraction tableau."""
    m, n = len(a), len(c)
    tableau = [
        [F(v) for v in a[i]] + [F(int(j == i)) for j in range(m)] + [F(b[i])]
        for i in range(m)
    ]
    tableau.append([-F(v) for v in c] + [F(0)] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving is None:
            raise Unbounded()
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m + 1):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering
    x = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return tableau[-1][-1], tuple(x), tuple(tableau[-1][n + i] for i in range(m))


def reference_zero_sum_value(matrix):
    """The normalized column LP on the Fraction matrix shifted to entries >= 1."""
    shift = 1 - min(min(row) for row in matrix)
    shifted = [[v + shift for v in row] for row in matrix]
    total, w, y = reference_simplex(shifted, [F(1)] * len(matrix), [F(1)] * len(matrix[0]))
    return 1 / total - shift, tuple(v / sum(y) for v in y), tuple(v / total for v in w)


def _entry_maker(rng, kind):
    if kind == "int":
        return lambda: F(rng.randint(-9, 9))
    if kind == "binary":
        return lambda: F(rng.randint(0, 1))
    return lambda: F(rng.randint(-12, 12), rng.randint(1, 12))


def _kernel_outcome(a, b, c):
    try:
        return simplex_max(a, b, c)
    except SimplexInternalError as exc:
        assert "unbounded" in str(exc)
        return "unbounded"


def _reference_outcome(a, b, c):
    try:
        return reference_simplex(a, b, c)
    except Unbounded:
        return "unbounded"


def test_simplex_matches_reference_on_random_lps():
    # Equal (value, x, y) pins the pivot sequence, not just the optimum.
    rng = random.Random(19680)
    outcomes = set()
    for _ in range(1200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entry = _entry_maker(rng, rng.choice(("int", "binary", "rational")))
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        b = [abs(entry()) for _ in range(rows)]  # zeros make degenerate vertices
        c = [entry() for _ in range(cols)]
        got = _kernel_outcome(a, b, c)
        assert got == _reference_outcome(a, b, c), (a, b, c)
        outcomes.add(got == "unbounded")
    assert outcomes == {True, False}


def test_simplex_matches_reference_on_game_lps():
    rng = random.Random(2005)
    for _ in range(800):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entry = _entry_maker(rng, rng.choice(("int", "binary", "rational")))
        matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
        shift = 1 - min(min(row) for row in matrix)
        shifted = [[v + shift for v in row] for row in matrix]
        ones_b, ones_c = [F(1)] * rows, [F(1)] * cols
        assert simplex_max(shifted, ones_b, ones_c) == reference_simplex(shifted, ones_b, ones_c)
        assert zero_sum_value(matrix) == reference_zero_sum_value(matrix), matrix


def _scaled_game(g, factors):
    """Player i's payoffs times factors[i]; payoffs are stored row-major."""
    cols = g.shape[1]
    scaled = [tuple(k * v for k, v in zip(factors, u)) for u in g.payoffs]
    return make_game(g.players, g.actions, [scaled[r : r + cols] for r in range(0, len(scaled), cols)])


@pytest.mark.parametrize("factors", [(F(2), F(1, 3)), (F(7, 5), F(12))])
def test_positive_scaling_leaves_iesds_and_zero_sum_strategies_unchanged(factors):
    rng = random.Random(1968)
    mixed_eliminations = 0
    for _ in range(40):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        entry = _entry_maker(rng, rng.choice(("int", "rational")))
        g = make_game(
            ["R", "C"],
            [[f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)]],
            [[(entry(), entry()) for _ in range(cols)] for _ in range(rows)],
        )
        scaled = _scaled_game(g, factors)
        trace = iesds(g, DominanceMode.ALLOW_MIXED).trace
        assert iesds(scaled, DominanceMode.ALLOW_MIXED).trace == trace
        mixed_eliminations += sum(e.dominator[0] == "mixed" for e in trace)

        k = factors[0]
        matrix = [[g.payoffs[r * cols + c][0] for c in range(cols)] for r in range(rows)]
        value, row, col = zero_sum_value(matrix)
        assert zero_sum_value([[k * v for v in line] for line in matrix]) == (k * value, row, col)
    assert mixed_eliminations > 0
