"""Differential tests of the integer elimination kernel and of Nash support
enumeration against slow, independent reference implementations kept here."""

import itertools
import random
from fractions import Fraction

from periodic_games import expected_utility, make_game, nash_support_enumeration
from periodic_games.linalg import polytope_vertices, rref, solve_exact
from periodic_games.mixed import own_payoff_matrix

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
