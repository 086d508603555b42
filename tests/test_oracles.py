"""Differential tests of the integer elimination and pivoting kernels, of
Nash equilibria, the best-response polyhedron vertices they pair and the
indifference vertices those share with periodic mixtures, of the
dominance check, of the Bayesian companion
games, of the cycle search, of the report and game writers and of the
seeded game generator against slow, independent reference
implementations kept here, plus metamorphic tests under positive payoff
scaling."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from periodic_games import (
    BayesianGame,
    cli,
    Game,
    build_periodicity_graph,
    conditional_belief,
    enumerate_cycles,
    ex_ante_game,
    expected_utility,
    iesds,
    interim_correlated_game,
    interim_game,
    linalg,
    make_game,
    nash_support_enumeration,
    rationalizability,
    validate_bayesian_game,
    validate_game,
)
from periodic_games.errors import Infeasible, ZeroProbabilityType
from periodic_games.game import payoff
from periodic_games.generate import random_game
from periodic_games.io import dump_report, format_fraction, serialize_game
from periodic_games.linalg import (
    affine_dimension,
    common_denominator,
    pivot,
    polytope_vertices,
    rref,
    scaled,
    solve_exact,
)
from periodic_games.lp import SimplexInternalError, simplex_max, zero_sum_value
from periodic_games.mixed import (
    PeriodicMixed,
    _best_response_vertices,
    _equalizer_vertices,
    _mutual_best_responses,
    periodic_mixed,
)
from periodic_games.periodicity import Cycle, all_cycles
from periodic_games.rationalizability import DominanceMode, Elimination, SurvivorSet, _find_dominator

from conftest import FIXTURES, own_payoff_matrix, random_rational_game

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


def reference_determinant(matrix):
    """Fraction Gaussian elimination, tracking row swaps."""
    m = [list(row) for row in matrix]
    det = F(1)
    for c in range(len(m)):
        r = next((i for i in range(c, len(m)) if m[i][c]), None)
        if r is None:
            return F(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            factor = m[i][c] / m[c][c]
            m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return det


def test_rref_pivots_are_leading_minors(monkeypatch):
    """Bareiss elimination: each pivot is a minor of the scaled matrix, so
    the last one of a nonsingular integer matrix is its determinant up to
    sign. An elimination that does not divide by the previous pivot still
    finds the right echelon form, but with entries far larger than that."""
    steps = []

    def recorded(rows, r, c, det):
        steps.append(det)
        p = pivot(rows, r, c, det)
        steps.append(p)
        return p

    monkeypatch.setattr(linalg, "pivot", recorded)
    rng = random.Random(1968)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        matrix = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        det = reference_determinant(matrix)
        steps.clear()
        reduced, pivots = rref(matrix)
        assert (reduced, pivots) == reference_rref(matrix)
        # Each step divides by the pivot of the step before it.
        assert steps[0] == 1 and steps[1::2][:-1] == steps[2::2]
        if det:
            assert abs(steps[-1]) == abs(det)
            checked += 1
    assert checked > 200


def integer_matrix(matrix):
    """A Fraction matrix times the lcm of all its denominators, and that lcm."""
    scale = common_denominator(v for row in matrix for v in row)
    return [scaled(row, scale) for row in matrix], scale


def _is_best_response(matrix, own, opp):
    """Every action in the support of ``own`` pays the most against ``opp``."""
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


def reference_indifference_vertices(matrix, own_support, opp_support, opp_size):
    """Opponent mixtures on opp_support equalizing the own_support rows,
    searched per column subset T of opp_support: a vertex is the unique,
    strictly positive solution on its own support T, with |T| <= the
    len(own_support) equations."""
    base = matrix[own_support[0]]
    vertices = []
    for size in range(1, min(len(opp_support), len(own_support)) + 1):
        for cols in itertools.combinations(opp_support, size):
            system = [[F(1)] * len(cols)]
            system += [[matrix[a][b] - base[b] for b in cols] for a in own_support[1:]]
            rhs = [F(1)] + [F(0)] * (len(own_support) - 1)
            kind, sol = solve_exact(system, rhs)
            if kind == "unique" and all(v > 0 for v in sol):
                full = [F(0)] * opp_size
                for b, v in zip(cols, sol):
                    full[b] = v
                vertices.append(tuple(full))
    return sorted(vertices)


def reference_periodic_vertices(matrix):
    """Mixtures p on the simplex with p . column equal for all columns, one
    column-difference equation per column after the first."""
    n, cols = len(matrix), len(matrix[0])
    system = [[F(1)] * n]
    system += [[matrix[a][k] - matrix[a][0] for a in range(n)] for k in range(1, cols)]
    return polytope_vertices(system, [F(1)] + [F(0)] * (cols - 1), n)


def _pure(n, a):
    return tuple(F(int(k == a)) for k in range(n))


def reference_best_responses(g, owner, mixture):
    """The actions of player ``owner`` that pay most against the other
    player's ``mixture``, by ``_is_best_response`` on each pure action, and
    their payoff, by ``expected_utility``."""
    n = g.shape[owner]
    matrix = own_payoff_matrix(g, owner)
    replies = frozenset(a for a in range(n) if _is_best_response(matrix, _pure(n, a), mixture))
    reply = _pure(n, min(replies))
    return replies, expected_utility(g, (reply, mixture) if owner == 0 else (mixture, reply))[owner]


def test_one_equalizer_matches_the_per_subset_search_and_the_column_system():
    """Nash vertices come from one vertex list per own support, kept where
    the support equals the vertex's best responses; periodic mixtures from
    the same routine on the transpose. Both must equal the separate
    searches they replace. Each kept vertex's best-response set and best
    payoff, computed once in integers, and each pair's accept/reject
    decision must equal the Fraction best-response test and
    ``expected_utility``."""
    rng = random.Random(2010)
    supports = kept = infeasible = accepted = rejected = 0
    for k in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        g = _random_bimatrix(rng, rows, cols, binary=k % 3 == 0)
        m_row, m_col = own_payoff_matrix(g, 0), own_payoff_matrix(g, 1)
        sides = []
        for owner, matrix in ((0, m_row), (1, m_col)):
            n, opp = g.shape[owner], g.shape[1 - owner]
            ints = integer_matrix(matrix)[0]
            expected = []
            for size in range(1, n + 1):
                for own in itertools.combinations(range(n), size):
                    vertices = reference_indifference_vertices(matrix, own, range(opp), opp)
                    assert _equalizer_vertices(ints, own) == vertices, (g, owner, own)
                    supports += 1
                    for q in vertices:
                        replies, best = reference_best_responses(g, owner, q)
                        if replies == frozenset(own):
                            expected.append((q, replies, best))
            got = _best_response_vertices(g, owner)
            assert [(c.mixture, c.replies, c.best) for c in got] == expected, (g, owner)
            for c in got:
                assert c.support == frozenset(b for b, v in enumerate(c.mixture) if v)
            kept += len(got)
            sides.append(got)
        q_vertices, p_vertices = sides
        for p in p_vertices:
            for q in q_vertices:
                expected = _is_best_response(m_row, p.mixture, q.mixture) and _is_best_response(
                    m_col, q.mixture, p.mixture
                )
                assert _mutual_best_responses(p, q) == expected, (g, p, q)
                accepted += expected
                rejected += not expected
        for i, matrix in enumerate((m_row, m_col)):
            reference = reference_periodic_vertices(matrix)
            if not reference:
                with pytest.raises(Infeasible):
                    periodic_mixed(g, i)
                infeasible += 1
                continue
            best = reference[0]
            assert periodic_mixed(g, i) == PeriodicMixed(
                probabilities=best,
                value=sum(matrix[a][0] * best[a] for a in range(len(best))),
                dimension=affine_dimension(reference),
            )
    assert supports > 2500 and kept > 1200 and 50 < infeasible < 250 and accepted > 300 and rejected > 3000


def reference_best_response_polytope(matrix):
    """The vertices of the owner's best-response polyhedron by the slack
    system: with M the payoff matrix scaled to integers and shifted to
    entries >= 1, every vertex (y, s) of {(M + shift) y + s = 1, y, s >= 0}
    with y != 0 gives the opponent mixture y / sum(y), the owner's best
    responses (the rows with s = 0) and the best payoff (1 / sum(y) - shift)
    / scale. Sorted as ``_best_response_vertices`` emits them: by best
    responses in combination order, then by mixture."""
    ints, scale = integer_matrix(matrix)
    n, m = len(ints), len(ints[0])
    shift = 1 - min(min(row) for row in ints)
    system = [[v + shift for v in row] + [int(a == k) for k in range(n)] for a, row in enumerate(ints)]
    out = []
    for vertex in polytope_vertices(system, [1] * n, m + n):
        y, s = vertex[:m], vertex[m:]
        total = sum(y)
        if total:
            replies = frozenset(a for a in range(n) if s[a] == 0)
            out.append((tuple(v / total for v in y), replies, (1 / total - shift) / scale))
    return sorted(out, key=lambda c: (len(c[1]), sorted(c[1]), c[0]))


def test_best_response_vertices_match_the_slack_system_polytope():
    """``_best_response_vertices`` against the slack-system oracle, and
    the extreme equilibria against the oracle's completely labelled pairs:
    every action is unplayed by its owner or a best response to the other
    mixture."""
    rng = random.Random(1964)
    pairs = equilibria = 0
    for k in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        g = _random_bimatrix(rng, rows, cols, binary=k % 3 == 0)
        m_row, m_col = own_payoff_matrix(g, 0), own_payoff_matrix(g, 1)
        q_side, p_side = reference_best_response_polytope(m_row), reference_best_response_polytope(m_col)
        for owner, side in ((0, q_side), (1, p_side)):
            assert [(c.mixture, c.replies, c.best) for c in _best_response_vertices(g, owner)] == side, g
        labelled = sorted(
            (p, q, (q_best, p_best))
            for p, p_replies, p_best in p_side
            for q, q_replies, q_best in q_side
            if all(v == 0 or a in q_replies for a, v in enumerate(p))
            and all(v == 0 or b in p_replies for b, v in enumerate(q))
        )
        got = [(e.row_strategy, e.col_strategy, e.utilities) for e in nash_support_enumeration(g)]
        assert got == labelled, g
        pairs += len(p_side) * len(q_side)
        equilibria += len(labelled)
    assert pairs > 3500 and equilibria > 250


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


def test_simplex_matches_reference_on_bench_sized_game_lps():
    # Up to the 20x20 CO-CO LPs of the benchmark: k/d payoffs (d <= 12),
    # and {0,1} payoffs, whose LPs are degenerate.
    rng = random.Random(2010)
    for rows, kind in itertools.product((12, 14, 16, 18, 20), ("rational", "binary")):
        cols = rng.randint(12, 20)
        entry = _entry_maker(rng, kind)
        matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
        shift = 1 - min(min(row) for row in matrix)
        shifted = [[v + shift for v in row] for row in matrix]
        ones_b, ones_c = [F(1)] * rows, [F(1)] * cols
        assert simplex_max(shifted, ones_b, ones_c) == reference_simplex(shifted, ones_b, ones_c), matrix


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


def reference_find_dominator(g, i, action, alive, mode):
    """The dominance check with one profile lookup per payoff, surviving
    opponent profiles enumerated in row-major order over sorted survivors."""
    others_alive = sorted(alive[i] - {action})
    if not others_alive:
        return None
    others = [j for j in range(g.num_players) if j != i]
    profiles = [dict(zip(others, opp)) for opp in itertools.product(*(sorted(alive[j]) for j in others))]

    def payoff_against(b, opp):
        profile = [0] * g.num_players
        profile[i] = b
        for j, c in opp.items():
            profile[j] = c
        return g.payoffs[g.profile_index(profile)][i]

    for b in others_alive:
        if all(payoff_against(b, opp) > payoff_against(action, opp) for opp in profiles):
            return ("pure", b)
    if mode is DominanceMode.ALLOW_MIXED and len(others_alive) >= 2:
        gains = [[payoff_against(b, opp) - payoff_against(action, opp) for opp in profiles] for b in others_alive]
        value, row_strategy, _ = zero_sum_value(gains)
        if value > 0:
            return ("mixed", tuple((b, w) for b, w in zip(others_alive, row_strategy) if w > 0))
    return None


def _random_survivor_sets():
    """300 seeded games, integer payoffs then k/d with d <= 12, each with
    a random nonempty set of surviving actions per player."""
    rng = random.Random(1996)
    for k in range(300):
        g = random_game(rng) if k < 150 else random_rational_game(rng)
        yield g, [frozenset(a for a in range(n) if rng.random() < 0.8) or frozenset({0}) for n in g.shape]


def reference_is_best_response(g, i, action, alive):
    """Whether ``action`` pays at least every other surviving action of
    player i against some surviving opponent profile, in Fractions."""
    others = [j for j in range(g.num_players) if j != i]
    for opp in itertools.product(*(sorted(alive[j]) for j in others)):
        payoffs = {}
        for b in alive[i]:
            profile = [0] * g.num_players
            profile[i] = b
            for j, c in zip(others, opp):
                profile[j] = c
            payoffs[b] = g.payoffs[g.profile_index(profile)][i]
        if payoffs[action] == max(payoffs.values()):
            return True
    return False


def test_find_dominator_matches_reference_on_random_survivor_sets():
    """Integer payoffs, then payoffs k/d with d <= 12, where the integer
    view's common scale is rarely 1: the dominators, mixed ones with their
    weights, equal those of the Fraction reference."""
    found = {"pure": 0, "mixed": 0}
    for g, alive in _random_survivor_sets():
        for i in range(g.num_players):
            for action in sorted(alive[i]):
                for mode in DominanceMode:
                    got = _find_dominator(g, i, action, alive, mode)
                    assert got == reference_find_dominator(g, i, action, alive, mode)
                    if got is not None:
                        found[got[0]] += 1
    assert found["pure"] > 300 and found["mixed"] > 30


def test_best_response_filter_skips_checks_and_no_dominated_action(monkeypatch):
    """On the same survivor sets, in both modes: a best response in some
    surviving column is never dominated by the reference's check, and
    ``_find_dominator`` returns None for it without an LP. In mixed mode
    the filter spares LPs the reference runs; in pure mode, pure checks."""
    lps = []
    zero_sum_value = rationalizability.zero_sum_value

    def counted(matrix):
        lps.append(len(matrix))
        return zero_sum_value(matrix)

    monkeypatch.setattr(rationalizability, "zero_sum_value", counted)
    skipped = {mode: 0 for mode in DominanceMode}
    for g, alive in _random_survivor_sets():
        for i in range(g.num_players):
            for action in sorted(alive[i]):
                if len(alive[i]) < 2 or not reference_is_best_response(g, i, action, alive):
                    continue
                for mode in DominanceMode:
                    lps.clear()
                    assert _find_dominator(g, i, action, alive, mode) is None and lps == []
                    assert reference_find_dominator(g, i, action, alive, mode) is None
                    # The reference runs an LP here whenever it has two rows.
                    if mode is DominanceMode.PURE_ONLY or len(alive[i]) > 2:
                        skipped[mode] += 1
    assert min(skipped.values()) > 0, skipped


def reference_iesds(g, mode, find_dominator=_find_dominator):
    """The elimination loop that re-checks every player in every round."""
    alive = [frozenset(range(size)) for size in g.shape]
    trace = []
    round_number = 0
    while True:
        round_number += 1
        doomed = []
        for i in range(g.num_players):
            for action in sorted(alive[i]):
                dominator = find_dominator(g, i, action, alive, mode)
                if dominator is not None:
                    doomed.append(Elimination(round_number, i, action, dominator))
        if not doomed:
            break
        for e in doomed:
            alive[e.player] = alive[e.player] - {e.action}
        trace.extend(doomed)
    return SurvivorSet(survivors=tuple(alive), trace=tuple(trace))


def _dominance_solvable_game(rng, n):
    """Payoffs in [0, 3] plus a per-action bonus in [0, 5], so eliminations
    chain over several rounds and across players."""
    shape = [rng.randint(2, 4) for _ in range(n)]
    players = [f"P{i}" for i in range(n)]
    actions = [[f"s{a}" for a in range(size)] for size in shape]
    bonus = [[rng.randint(0, 5) for _ in range(size)] for size in shape]

    def table(depth, profile):
        if depth == n:
            return [rng.randint(0, 3) + bonus[i][profile[i]] for i in range(n)]
        return [table(depth + 1, profile + (a,)) for a in range(shape[depth])]

    return make_game(players, actions, table(0, ()))


def test_iesds_skipping_unchanged_players_matches_the_every_player_loop(monkeypatch):
    import periodic_games.rationalizability as rationalizability

    checks = {"kernel": 0, "reference": 0}

    def counting(key):
        def find_dominator(*args):
            checks[key] += 1
            return _find_dominator(*args)

        return find_dominator

    monkeypatch.setattr(rationalizability, "_find_dominator", counting("kernel"))
    rng = random.Random(1968)
    games = [random_game(rng) for _ in range(20)]
    games += [_dominance_solvable_game(rng, 2 + k % 3) for k in range(60)]
    late_rounds = 0
    for g in games:
        for mode in DominanceMode:
            want = reference_iesds(g, mode, counting("reference"))
            assert iesds(g, mode) == want
            late_rounds += any(e.round >= 3 for e in want.trace)
    assert late_rounds > 0
    assert checks["kernel"] < checks["reference"]


def reference_interim_correlated_game(bg):
    """The correlated-conditioning interim game as first written: each
    (player, type) belief is split into a marginal over opponent types and,
    per joint type, a conditional over the parameter, recomputed for every
    profile; with one type per player, the expected game over the parameter."""
    validate_bayesian_game(bg)
    n = bg.num_players
    if all(len(t) == 1 for t in bg.types):
        flat = []
        for profile in itertools.product(*(range(len(a)) for a in bg.actions)):
            totals = [F(0)] * n
            for (theta, _), prob in bg.prior.items():
                if prob == 0:
                    continue
                u = payoff(bg.games[theta], profile)
                for i in range(n):
                    totals[i] += prob * u[i]
            flat.append(tuple(totals))
        game = Game(players=bg.players, actions=bg.actions, payoffs=tuple(flat))
        validate_game(game)
        return game
    for i in range(n):
        for t in range(len(bg.types[i])):
            if sum((p for (_, tp), p in bg.prior.items() if tp[i] == t), F(0)) == 0:
                raise ZeroProbabilityType(
                    f"type {bg.types[i][t]!r} of player {bg.players[i]!r} has zero prior probability"
                )
    ids = [(i, t) for i in range(n) for t in range(len(bg.types[i]))]
    flat_labels = [label for labels in bg.types for label in labels]
    unique = len(set(flat_labels)) == len(flat_labels)
    labels = tuple(bg.types[i][t] if unique else f"{bg.players[i]}.{bg.types[i][t]}" for i, t in ids)
    actions = tuple(bg.actions[i] for i, _ in ids)
    flat = []
    for joint in itertools.product(*(range(len(a)) for a in actions)):
        chosen = {node: joint[k] for k, node in enumerate(ids)}
        vector = []
        for i, t in ids:
            belief = conditional_belief(bg, i, t)
            opp_marginal = {}
            for (theta, opp_types), prob in belief.distribution.items():
                opp_marginal[opp_types] = opp_marginal.get(opp_types, F(0)) + prob
            total = F(0)
            for opp_types, mass in opp_marginal.items():
                profile = [0] * n
                profile[i] = chosen[(i, t)]
                for j, tj in zip([j for j in range(n) if j != i], opp_types):
                    profile[j] = chosen[(j, tj)]
                for (theta, ot), prob in belief.distribution.items():
                    if ot == opp_types:
                        total += mass * (prob / mass) * payoff(bg.games[theta], profile)[i]
            vector.append(total)
        flat.append(tuple(vector))
    game = Game(players=labels, actions=actions, payoffs=tuple(flat))
    validate_game(game)
    return game


def _random_bayesian_game(rng, k):
    """2 players with 1-3 types each, or 3 players with 1-2; every fifth
    game has one type per player. Type labels clash across players in every
    other game; prior entries of mass zero are kept in the prior."""
    n = 3 if k % 4 == 3 else 2
    one_type = k % 5 == 0
    types = [1 if one_type else rng.randint(1, 3 if n == 2 else 2) for _ in range(n)]
    size = 3 if sum(types) <= 4 else 2
    players = tuple(f"P{i}" for i in range(n))
    actions = tuple(tuple(f"{players[i]}a{a}" for a in range(size)) for i in range(n))
    clash = k % 2 == 0
    type_labels = tuple(
        tuple(f"t{t}" if clash else f"{players[i]}t{t}" for t in range(types[i])) for i in range(n)
    )
    thetas = tuple(f"th{s}" for s in range(rng.randint(1, 2)))
    keys = [(s, tp) for s in range(len(thetas)) for tp in itertools.product(*(range(c) for c in types))]
    weights = {key: rng.choice((0, 0, 1, 2, 3)) for key in keys if rng.random() < 0.8}
    if not any(weights.values()):
        weights[keys[0]] = 1
    total = sum(weights.values())
    prior = {key: F(w, total) for key, w in weights.items()}
    profiles = list(itertools.product(range(size), repeat=n))
    games = tuple(
        Game(players, actions, tuple(tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(n)) for _ in profiles))
        for _ in thetas
    )
    return BayesianGame(thetas, type_labels, prior, games)


def _outcome(build, bg):
    try:
        return build(bg)
    except ZeroProbabilityType as exc:
        return ("ZeroProbabilityType", str(exc))


def test_interim_correlated_game_matches_the_reference():
    rng = random.Random(2005)
    kinds = {"game": 0, "one type": 0, "zero type": 0, "zero entry": 0}
    for k in range(200):
        bg = _random_bayesian_game(rng, k)
        expected = _outcome(reference_interim_correlated_game, bg)
        assert _outcome(interim_correlated_game, bg) == expected, k
        if not all(len(t) == 1 for t in bg.types):
            assert _outcome(interim_game, bg) == expected, k
        kinds["game" if isinstance(expected, Game) else "zero type"] += 1
        kinds["one type"] += all(len(t) == 1 for t in bg.types)
        kinds["zero entry"] += 0 in bg.prior.values()
    assert min(kinds.values()) >= 10, kinds


def reference_ex_ante_game(bg):
    """The ex-ante game with one Fraction product per prior entry and payoff."""
    validate_bayesian_game(bg)
    n = bg.num_players
    strategy_sets = [
        list(itertools.product(range(len(bg.actions[i])), repeat=len(bg.types[i])))
        for i in range(n)
    ]
    labels = tuple(
        tuple("".join(bg.actions[i][a] for a in choice) for choice in strategy_sets[i])
        for i in range(n)
    )
    flat = []
    for joint in itertools.product(*strategy_sets):
        totals = [F(0)] * n
        for (theta, tp), prob in bg.prior.items():
            if prob == 0:
                continue
            u = payoff(bg.games[theta], tuple(joint[i][tp[i]] for i in range(n)))
            for i in range(n):
                totals[i] += prob * u[i]
        flat.append(tuple(totals))
    game = Game(players=bg.players, actions=labels, payoffs=tuple(flat))
    validate_game(game)
    return game


COPRIME = (3, 5, 7, 11, 13, 17, 19, 23)  # sum of reciprocals < 1


def _coprime_prior_game(rng, k):
    """2 players with 1-3 types or 3 with 1-2, and 2 thetas. The prior puts
    1/p on distinct entries for a few distinct primes p and the rest on one
    more entry, keeps mass-zero entries, and so may leave a type without
    mass; payoffs are k/d with d up to 12."""
    n = 3 if k % 3 == 2 else 2
    types = [rng.randint(1, 3 if n == 2 else 2) for _ in range(n)]
    size = 3 if sum(types) <= 4 else 2
    players = tuple(f"P{i}" for i in range(n))
    actions = tuple(tuple(f"{players[i]}a{a}" for a in range(size)) for i in range(n))
    type_labels = tuple(tuple(f"{players[i]}t{t}" for t in range(types[i])) for i in range(n))
    thetas = ("th0", "th1")
    keys = [(s, tp) for s in range(2) for tp in itertools.product(*(range(c) for c in types))]
    rng.shuffle(keys)
    primes = rng.sample(COPRIME, rng.randint(1, min(len(COPRIME), len(keys) - 1)))
    prior = {key: F(1, p) for key, p in zip(keys, primes)}
    prior[keys[len(primes)]] = 1 - sum(prior.values())
    for key in keys[len(primes) + 1:]:
        if rng.random() < 0.3:
            prior[key] = F(0)
    profiles = list(itertools.product(range(size), repeat=n))
    games = tuple(
        Game(players, actions, tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)) for _ in profiles))
        for _ in thetas
    )
    return BayesianGame(thetas, type_labels, prior, games)


def test_bayesian_builders_match_the_references_on_coprime_priors():
    rng = random.Random(1975)
    kinds = {"3 players": 0, "several types": 0, "zero type": 0, "zero entry": 0}
    for k in range(120):
        bg = _coprime_prior_game(rng, k)
        assert ex_ante_game(bg) == reference_ex_ante_game(bg), k
        expected = _outcome(reference_interim_correlated_game, bg)
        if not all(len(t) == 1 for t in bg.types):
            assert _outcome(interim_game, bg) == expected, k
            kinds["several types"] += 1
        kinds["3 players"] += bg.num_players == 3
        kinds["zero type"] += not isinstance(expected, Game)
        kinds["zero entry"] += 0 in bg.prior.values()
    assert min(kinds.values()) >= 10, kinds


def reference_enumerate_cycles(graph, through, max_len):
    """Depth-first search over every node, with no pruning."""
    cycles = []
    path = [through]

    def extend(node):
        for nxt in graph.successors(node):
            if nxt == through:
                if 2 <= len(path) <= max_len:
                    cycles.append(Cycle(tuple(path)))
            elif nxt not in path and len(path) < max_len:
                path.append(nxt)
                extend(nxt)
                path.pop()

    extend(through)
    cycles.sort(key=lambda c: (c.length, c.nodes))
    return cycles


def reference_all_cycles(graph, max_len):
    """The cycles through every node, kept the first time their smallest
    rotation is seen."""
    seen = set()
    out = []
    for node in sorted(graph.nodes):
        for cycle in reference_enumerate_cycles(graph, node, max_len):
            rotated = min(cycle.nodes[k:] + cycle.nodes[:k] for k in range(cycle.length))
            if rotated not in seen:
                seen.add(rotated)
                out.append(cycle)
    return out


def _cycle_test_games(rng, count):
    """2-4 players with 2-3 actions; every other game has {0,1} payoffs, so
    best deviations tie and resolve lexicographically."""
    for k in range(count):
        n = 2 + k % 3
        shape = [rng.randint(2, 3) for _ in range(n)]
        players = [f"P{i}" for i in range(n)]
        actions = [[f"s{a}" for a in range(size)] for size in shape]
        binary = k % 2 == 0

        def table(depth):
            if depth == n:
                return [rng.randint(0, 1) if binary else rng.randint(-9, 9) for _ in range(n)]
            return [table(depth + 1) for _ in range(shape[depth])]

        yield make_game(players, actions, table(0))


def _count_expanded(graph):
    """Record every node whose successors the search asks for."""
    expanded = []
    successors = graph.successors

    def counting(node):
        expanded.append(node)
        return successors(node)

    object.__setattr__(graph, "successors", counting)
    return expanded


def test_cycle_search_matches_the_rotate_and_dedupe_reference():
    rng = random.Random(1972)
    cycles_seen = degenerate = 0
    for g in _cycle_test_games(rng, 60):
        graph = build_periodicity_graph(g)
        degenerate += bool(graph.degenerate_flags)
        for max_len in range(2, len(graph.nodes) + 1):
            expected = reference_all_cycles(graph, max_len)
            assert all_cycles(graph, max_len) == expected
            cycles_seen += len(expected)
        for node in graph.nodes:
            assert enumerate_cycles(graph, node, 4) == reference_enumerate_cycles(graph, node, 4)
    assert cycles_seen > 500 and degenerate >= 10, (cycles_seen, degenerate)


def _cycle_exits(graph):
    """Edges from a node on a cycle to a node on none."""
    cyclic = graph.cyclic_nodes
    return [(v, w) for v in cyclic for w in graph.successors(v) if w not in cyclic]


def test_cycle_search_expands_only_cyclic_nodes_and_each_cycle_once():
    # With 3 or 4 players a node on a cycle can point off every cycle; one
    # random game in about seventy does, so the first five are kept.
    rng = random.Random(1975)
    graphs = []
    for _ in range(2000):
        graph = build_periodicity_graph(random_game(rng, rng.randint(3, 4)))
        if _cycle_exits(graph):
            graphs.append(graph)
            if len(graphs) == 5:
                break
    assert len(graphs) == 5
    for graph in graphs:
        cyclic = graph.cyclic_nodes
        expanded = _count_expanded(graph)
        for node in graph.nodes:
            expanded.clear()
            enumerate_cycles(graph, node, len(graph.nodes))
            assert set(expanded) - {node} <= cyclic
        expanded.clear()
        cycles = all_cycles(graph, len(graph.nodes))
        assert set(expanded) <= cyclic
        assert cycles == reference_all_cycles(graph, len(graph.nodes))
        assert all(min(c.nodes) == c.nodes[0] for c in cycles)
        assert len({c.nodes for c in cycles}) == len(cycles)


def reference_to_jsonable(value):
    """Machine-report values as first written: a recursive pass rendering
    Fractions as strings, before one ``json.dumps``."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, dict):
        return {str(k): reference_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_to_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(reference_to_jsonable(v) for v in value)
    return value


def reference_dump_report(report):
    return json.dumps(reference_to_jsonable(report), indent=2, sort_keys=True) + "\n"


def reference_serialize_game(g):
    """The game document with its payoff tensor built recursively, one
    ``profile_index`` per payoff vector."""

    def build(prefix):
        if len(prefix) == g.num_players:
            return [format_fraction(v) for v in g.payoffs[g.profile_index(prefix)]]
        return [build(prefix + (k,)) for k in range(g.shape[len(prefix)])]

    doc = {
        "players": list(g.players),
        "actions": {p: list(acts) for p, acts in zip(g.players, g.actions)},
        "payoffs": build(()),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_random_game(rng, num_players=None):
    """``generate.random_game`` as first written: a nested payoff table
    that ``make_game`` walks."""
    n = num_players if num_players is not None else rng.randint(2, 4)
    shape = [rng.randint(2, 4) for _ in range(n)]
    players = [f"P{i + 1}" for i in range(n)]
    actions = [[f"s{k + 1}" for k in range(size)] for size in shape]

    def table(depth):
        if depth == n:
            return [F(rng.randint(-9, 9)) for _ in range(n)]
        return [table(depth + 1) for _ in range(shape[depth])]

    return make_game(players, actions, table(0))


def test_random_game_matches_the_nested_table_generator():
    for seed in range(301):
        for num_players in (None, 2 + seed % 3):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(2):  # consecutive draws, as perigame check makes them
                assert random_game(rng, num_players) == reference_random_game(ref, num_players), seed
            assert rng.getstate() == ref.getstate(), seed


def test_check_output_is_unchanged_under_the_nested_table_generator(capsys, monkeypatch):
    outputs = []
    for generator in (random_game, reference_random_game):
        monkeypatch.setattr(cli, "random_game", generator)
        for seed in range(3):
            assert cli.main(["check", "--seed", str(seed), "--count", "10"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.count("checked 10 random games") == 3


def _shaped_game(rng):
    """2-4 players with 1-3 actions each (so some axes have one action) and
    payoffs k/d."""
    n = rng.randint(2, 4)
    shape = [rng.randint(1, 3) for _ in range(n)]
    return Game(
        tuple(f"P{i}" for i in range(n)),
        tuple(tuple(f"a{k}" for k in range(size)) for size in shape),
        tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            for _ in range(math.prod(shape))
        ),
    )


def test_serialize_game_matches_the_recursive_writer():
    rng = random.Random(2012)
    one_action_axes = 0
    for _ in range(200):
        g = _shaped_game(rng)
        assert serialize_game(g) == reference_serialize_game(g), g
        one_action_axes += 1 in g.shape
    assert one_action_axes >= 50, one_action_axes


def _report_documents(tmp_path):
    """(command, path) pairs: every machine-report command on the fixtures
    and on seeded games, integer and rational, of 2 to 4 players."""
    rng = random.Random(1983)
    games = [random_game(rng, 2) for _ in range(4)] + [random_rational_game(rng, 2) for _ in range(4)]
    games += [random_game(rng, n) for n in (3, 4)] + [random_rational_game(rng, 3)]
    paths = sorted(FIXTURES.glob("*.game.json"))
    for k, g in enumerate(games):
        paths.append(tmp_path / f"seeded{k}.game.json")
        paths[-1].write_text(serialize_game(g))
    for path in paths:
        players = len(json.loads(path.read_text())["players"])
        for command in ["analyze", "cycles", "mixed"] + (["nash", "coco"] if players == 2 else []):
            yield command, str(path)


def test_machine_reports_match_the_recursive_encoder(tmp_path, capsys, monkeypatch):
    reports = []

    def checked(report):
        text = dump_report(report)
        assert text == reference_dump_report(report)
        reports.append(report)
        return text

    monkeypatch.setattr(cli, "dump_report", checked)
    commands = set()
    for command, path in _report_documents(tmp_path):
        assert cli.main([command, path, "--format", "machine"]) == 0, (command, path)
        assert capsys.readouterr().out == reference_dump_report(reports[-1])
        commands.add(command)
    assert commands == {"analyze", "cycles", "mixed", "nash", "coco"}
    assert any(None in r.get("periodic_mixed", {}).values() for r in reports)
