"""Differential tests of the integer elimination and pivoting kernels, of
Nash equilibria, the best-response polyhedron vertices they pair and the
indifference vertices those share with periodic mixtures, of the
dominance check, of the Bayesian companion
games, of the cycle search, of the report and game writers, of the
seeded game generator and of the games built from integers against slow, independent reference
implementations kept here, plus metamorphic tests under positive payoff
scaling."""

import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from periodic_games import (
    __version__,
    BayesianGame,
    cli,
    coco_solution,
    Game,
    TiePolicy,
    build_periodicity_graph,
    conditional_belief,
    enumerate_cycles,
    ex_ante_game,
    expected_utility,
    iesds,
    interim_correlated_game,
    interim_game,
    linalg,
    lp,
    make_game,
    mixed,
    nash_support_enumeration,
    periodic_actions,
    periodicity,
    rationalizability,
    rationalizable_periodic,
    validate_bayesian_game,
    validate_game,
)
from periodic_games.errors import BadParameter, DegenerateArgmax, Infeasible, SizeLimit, ValidationError, ZeroProbabilityType
from periodic_games.game import payoff
from periodic_games.generate import random_game
from periodic_games.io import dump_report, format_fraction, parse_bayes, parse_game, serialize_game
from periodic_games.linalg import (
    affine_dimension,
    integer_column,
    pivot,
    polytope_vertices,
    rref,
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

from conftest import FIXTURES, assert_same_as_public, own_payoff_matrix, random_rational_game, simplex_fractions

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


def reference_solve_square(a, b):
    """Gauss-Jordan elimination of ``[a | b]``, ``linalg.pivot`` reducing
    every other row: every pivot entry ends up equal to the last pivot, the
    denominator."""
    k = len(a)
    m = [list(row) + [v] for row, v in zip(a, b)]
    det = 1
    for c in range(k):
        r = next((i for i in range(c, k) if m[i][c]), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        det = linalg.pivot(m, c, c, det)
    sign = 1 if det > 0 else -1
    return [sign * row[-1] for row in m], sign * det


def _square_system_variants(a, b):
    """``a x = b``, its first two rows swapped (the determinant negated), its
    first column zero above the last row (row swaps), and singular copies:
    a repeated row, a sum row and a zero column."""
    k = len(a)
    yield a, b
    if k >= 2:
        yield [a[1], a[0]] + a[2:], [b[1], b[0]] + b[2:]
        yield [[0] + row[1:] for row in a[:-1]] + [a[-1]], b
        yield a[:-1] + [a[0]], b
    if k >= 3:
        yield a[:-1] + [[x + y for x, y in zip(a[0], a[1])]], b
    yield [row[:-1] + [0] for row in a], b


def test_forward_solve_matches_gauss_jordan_on_square_systems():
    rng = random.Random(1982)
    seen = {"singular": 0, "negative determinant": 0, "positive determinant": 0, "row swap": 0}
    for k in range(1, 15):
        for low, high in ((0, 1), (-3, 3), (-(2**20), 2**20)):
            a = [[rng.randint(low, high) for _ in range(k)] for _ in range(k)]
            b = [rng.randint(low, high) for _ in range(k)]
            for system in _square_system_variants(a, b):
                expected = reference_solve_square(*system)
                assert linalg.solve_square(*system) == expected, system
                if k <= 10:  # the Fraction references grow fast with k
                    assert rref(system[0]) == reference_rref(system[0]), system
                    assert solve_exact(*system) == reference_solve(*system), system
                if expected is None:
                    seen["singular"] += 1
                    continue
                seen["row swap"] += system[0][0][0] == 0
                if k <= 10:
                    det = reference_determinant(system[0])
                    seen["negative determinant" if det < 0 else "positive determinant"] += 1
    assert min(seen.values()) > 20, seen


def test_forward_solve_matches_gauss_jordan_on_game_lp_supports(monkeypatch):
    # The square systems of 20x20 zero-sum LPs on k/d payoffs (d <= 12), at
    # the supports the float guess finds: x's system and the transposed one.
    systems = []

    def recorded(a, b):
        systems.append(([row[:] for row in a], b[:]))
        return linalg.solve_square(a, b)

    monkeypatch.setattr(lp, "solve_square", recorded)
    rng = random.Random(1968)
    entry = _entry_maker(rng, "rational")
    for _ in range(4):
        zero_sum_value([[entry() for _ in range(20)] for _ in range(20)], scale=2)
    assert len(systems) == 8
    for a, b in systems:
        expected = reference_solve_square(a, b)
        assert expected is not None and linalg.solve_square(a, b) == expected


def integer_matrix(matrix):
    """A Fraction matrix times the lcm of all its denominators, and that lcm."""
    cols = len(matrix[0])
    flat, scale = integer_column([v for row in matrix for v in row])
    return [flat[k : k + cols] for k in range(0, len(flat), cols)], scale


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
    games = [_random_bimatrix(rng, rng.randint(1, 4), rng.randint(1, 5), binary=k % 3 == 0) for k in range(150)]
    # The oracle solves C(rows + cols, cols) bases per side, 0.1-0.2 s for 6x6.
    rng = random.Random(2010)
    larger = [(5, 5), (6, 6), (5, 6), (6, 5)]
    games += [_random_bimatrix(rng, rows, cols, binary) for rows, cols in larger for binary in (False, True)]
    pairs = equilibria = 0
    for g in games:
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


def reference_lex_feasible_bases(ints):
    """The number of bases B of the slack system {(M + shift) y + s = 1,
    y, s >= 0}, M an integer matrix shifted to entries >= 1, at which every
    row of [B^-1 1 | B^-1] is lexicographically positive: the vertices of
    that polytope with the right-hand side of row k perturbed by eps^(k+1),
    by textbook elimination of [B | 1 | I] for every column subset."""
    m, n = len(ints), len(ints[0])
    shift = 1 - min(min(row) for row in ints)
    system = [[v + shift for v in row] + [int(a == k) for k in range(m)] for a, row in enumerate(ints)]
    count = 0
    for basis in itertools.combinations(range(n + m), m):
        reduced, pivots = reference_rref(
            [[row[j] for j in basis] + [1] + [int(a == k) for k in range(m)] for a, row in enumerate(system)]
        )
        if pivots == list(range(m)) and all(next(v for v in row[m:] if v) > 0 for row in reduced):
            count += 1
    return count


def test_the_nash_walk_visits_each_lex_feasible_basis_once(monkeypatch):
    """Each basis is reached by one ``exchange`` from a visited one, so the
    walk pivots once per lexicographically feasible basis but the first;
    a walk that broke ratio ties otherwise would reach other bases."""
    pivots = []
    exchange = mixed.exchange

    def counted(rows, r, c, det):
        pivots.append((r, c))
        return exchange(rows, r, c, det)

    monkeypatch.setattr(mixed, "exchange", counted)
    rng = random.Random(2011)
    degenerate = 0
    for k in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        g = _random_bimatrix(rng, rows, cols, binary=k % 4 != 0)
        for owner in (0, 1):
            pivots.clear()
            mixed._best_response_vertices(g, owner)
            bases = reference_lex_feasible_bases(g.own_payoffs[owner].rows)
            assert len(pivots) == bases - 1, (g, owner)
            # More bases than vertices (0 included) means a degenerate Q.
            degenerate += bases - 1 > len(_best_response_vertices(g, owner))
    assert degenerate > 10


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
        _assert_integer_result(got)
        assert simplex_fractions(got) == _reference_outcome(a, b, c), (a, b, c)
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
        assert simplex_fractions(simplex_max(shifted, ones_b, ones_c)) == reference_simplex(shifted, ones_b, ones_c)
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
        assert simplex_fractions(simplex_max(shifted, ones_b, ones_c)) == reference_simplex(shifted, ones_b, ones_c), matrix


def test_simplex_runs_blands_rule_once_with_the_guess_off(monkeypatch):
    # 20x20 game LPs with k/d payoffs, whose optimum is unique, and with
    # {0,1} payoffs, whose LPs are degenerate. With the float support guess
    # off, every LP runs the pivot loop once, from the all-slack basis, and
    # ends on the reference's result.
    monkeypatch.setattr(lp, "_float_support", lambda tableau: None)
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2020)
    for kind in ("rational", "binary"):
        entry = _entry_maker(rng, kind)
        for _ in range(3):
            matrix = [[entry() for _ in range(20)] for _ in range(20)]
            shift = 1 - min(min(row) for row in matrix)
            shifted = [[v + shift for v in row] for row in matrix]
            ones = [F(1)] * 20
            runs.clear()
            assert simplex_fractions(simplex_max(shifted, ones, ones)) == reference_simplex(shifted, ones, ones), matrix
            assert runs == [(20, 20)], (kind, matrix)


def test_simplex_ends_on_beales_cycling_lp(monkeypatch):
    # Beale (1955): Dantzig's rule, with the same ratio test, cycles through
    # six bases without moving off the origin. Bland's rule picks every
    # entering column from the first pivot on, degenerate pivots included,
    # and ends at the optimum.
    n = 4
    nonbasic = list(range(n))
    basis = list(range(n, n + 3))
    events = []
    exchange = lp.exchange

    def pivot(rows, r, c, det):
        objective = rows[-1]
        assert c == min((j for j in range(n) if objective[j] < 0), key=nonbasic.__getitem__)
        events.append("degenerate" if rows[r][-1] == 0 else "pivot")
        nonbasic[c], basis[r] = basis[r], nonbasic[c]
        return exchange(rows, r, c, det)

    monkeypatch.setattr(lp, "exchange", pivot)
    a = [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)], [F(0), F(0), F(1), F(0)]]
    b = [F(0), F(0), F(1)]
    c = [F(3, 4), F(-20), F(1, 2), F(-6)]
    result = simplex_fractions(simplex_max(a, b, c))
    assert result == reference_simplex(a, b, c)
    assert result[:2] == (F(5, 4), (F(1), F(0), F(1), F(0)))
    assert events[0] == "degenerate" and "pivot" in events, events


def _unguessed_outcome(monkeypatch, a, b, c):
    """``simplex_max`` with the float support guess off."""
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_float_support", lambda tableau: None)
        return _kernel_outcome(a, b, c)


def _assert_integer_result(outcome):
    """An outcome of ``simplex_max`` is "unbounded" or ints over one
    positive denominator."""
    if outcome != "unbounded":
        value, x, y, den = outcome
        assert {type(v) for v in (value, *x, *y, den)} == {int} and den > 0, outcome


def _recorded_pivot_loops(monkeypatch):
    """One entry per run of ``lp._pivot_loop`` from here on: the (rows,
    columns) of the LP it pivots."""
    runs = []
    loop = lp._pivot_loop

    def recorded(tableau):
        runs.append((len(tableau) - 1, len(tableau[-1]) - 1))
        return loop(tableau)

    monkeypatch.setattr(lp, "_pivot_loop", recorded)
    return runs


def test_the_support_guess_changes_no_triple(monkeypatch):
    # Integer, {0,1} and k/d LPs, square and rectangular, game LPs and
    # general ones (some unbounded), some with a zero in b, which the guess
    # gives up on. Both kinds of LP end both ways: certified from the guess,
    # with no pivot, and by the pivot loop.
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2030)
    seen = {"certified": 0, "pivoted": 0, "zero in b": 0, "unbounded": 0}
    for k in range(600):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        entry = _entry_maker(rng, ("int", "binary", "rational")[k % 3])
        if k % 2:
            matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
            shift = 1 - min(min(row) for row in matrix)
            a, b, c = [[v + shift for v in row] for row in matrix], [F(1)] * rows, [F(1)] * cols
        else:
            a = [[entry() for _ in range(cols)] for _ in range(rows)]
            b = [abs(entry()) for _ in range(rows)]
            c = [entry() for _ in range(cols)]
        seen["zero in b"] += 0 in b
        runs.clear()
        guessed = _kernel_outcome(a, b, c)
        seen["pivoted" if runs else "certified"] += 1
        assert guessed == _unguessed_outcome(monkeypatch, a, b, c), (a, b, c)
        _assert_integer_result(guessed)
        seen["unbounded"] += guessed == "unbounded"
    assert min(seen.values()) > 30, seen


def test_a_perturbed_support_guess_changes_no_result(monkeypatch):
    # The guess only picks a system to solve: one with a column added or
    # dropped, or a row or column swapped for another, fails the integer
    # checks, and the pivot path gives the LP's result.
    rng = random.Random(2031)
    guess = lp._float_support
    for k in range(60):
        size = rng.randint(3, 12)
        entry = _entry_maker(rng, ("rational", "int")[k % 2])
        matrix = [[entry() for _ in range(size + k % 3)] for _ in range(size)]
        shift = 1 - min(min(row) for row in matrix)
        a = [[v + shift for v in row] for row in matrix]
        b, c = [F(1)] * len(a), [F(1)] * len(a[0])
        supports = []
        monkeypatch.setattr(lp, "_float_support", lambda tableau: supports.append(guess(tableau)) or supports[0])
        expected = _kernel_outcome(a, b, c)
        assert expected == _unguessed_outcome(monkeypatch, a, b, c)
        rows, cols = supports[0]
        perturbed = []
        other_cols = [j for j in range(len(c)) if j not in cols]
        other_rows = [i for i in range(len(b)) if i not in rows]
        if other_cols:
            perturbed.append((rows, sorted(cols + [rng.choice(other_cols)])))
            perturbed.append((rows, sorted(cols[1:] + [rng.choice(other_cols)])))
        perturbed.append((rows, cols[1:]))
        if other_rows:
            perturbed.append((sorted(rows[1:] + [rng.choice(other_rows)]), cols))
        for wrong in perturbed:
            monkeypatch.setattr(lp, "_float_support", lambda tableau, wrong=wrong: wrong)
            assert simplex_max(a, b, c) == expected, (matrix, wrong)


def test_entries_too_large_for_a_float_take_the_scaled_guess(monkeypatch):
    big = 2**1100
    guesses = []
    guess = lp._float_support

    def recorded(tableau):
        guesses.append(guess(tableau))
        return guesses[-1]

    monkeypatch.setattr(lp, "_float_support", recorded)
    runs = _recorded_pivot_loops(monkeypatch)
    # Every entry over its right-hand side would overflow a float, and every
    # LP gets a guess from the scaled data. In the first, x0's column scaled
    # to its largest entry leaves its other entry and its cost below the
    # least float, so the guess misses the optimal basis, which needs x0;
    # the second's optimum is not unique. Each runs Bland's rule once. The
    # others, and the zero-sum game, are certified with no pivot; in the
    # last LP every entry is too small for a float over its right-hand side,
    # and the scaling shifts each numerator up.
    cases = [
        ([[F(big), F(1)], [F(1), F(2)]], [F(1), F(1)], [F(1), F(1)], [([1], [1])], 1),
        ([[F(1), F(1)], [F(1), F(2)]], [F(1, big), F(1)], [F(1), F(1)], [([0], [0])], 1),
        ([[F(1), F(2)], [F(3), F(1)]], [F(1), F(1)], [F(big), F(1)], [([1], [0])], 0),
        ([[F(1), F(2)], [F(3), F(1)]], [F(1), F(1)], [F(big), F(big - 1)], [([0, 1], [0, 1])], 0),
        ([[F(1), F(2)], [F(3), F(1)]], [F(big), F(big)], [F(1), F(1)], [([0, 1], [0, 1])], 0),
    ]
    for a, b, c, expected, pivoted in cases:
        guesses.clear()
        runs.clear()
        guessed = _kernel_outcome(a, b, c)
        assert guesses == expected and len(runs) == pivoted, (guesses, runs)
        assert guessed == _unguessed_outcome(monkeypatch, a, b, c)
        assert simplex_fractions(guessed) == reference_simplex(a, b, c)
        _assert_integer_result(guessed)
    matrix = [[F(big), F(-1)], [F(-big), F(2)], [F(3), F(big, 7)]]
    guesses.clear()
    runs.clear()
    assert zero_sum_value(matrix) == reference_zero_sum_value(matrix)
    assert guesses == [([0, 2], [0, 1])] and runs == []


def _huge_matrix(rng, kind, rows, cols):
    """Random integers of 300 or 400 digits, k * 2**1100 + j with k and j in
    [-9, 9], or {0,1} times 2**1100, whose LPs are degenerate."""
    if kind == "binary":
        return [[rng.randint(0, 1) * 2**1100 for _ in range(cols)] for _ in range(rows)]
    if kind == "2**1100":
        return [[rng.randint(-9, 9) * 2**1100 + rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    bound = 10**kind
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_zero_sum_lps_of_huge_entries_always_get_a_guess(monkeypatch):
    """Whatever the size of the entries, the scaled float guess gives a basis
    for every zero-sum LP. Where the optimum is unique (random dense
    entries), the integer check accepts it and no pivot loop runs; the
    degenerate {0,1} LPs run Bland's rule at most once. A 20x20 LP of
    400-digit entries is certified with no pivot."""
    guesses = []
    guess = lp._float_support

    def recorded(tableau):
        guesses.append(guess(tableau))
        return guesses[-1]

    monkeypatch.setattr(lp, "_float_support", recorded)
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2037)
    pivoted = 0
    for kind in (300, 400, "2**1100", "binary"):
        for _ in range(8):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            matrix = _huge_matrix(rng, kind, rows, cols)
            guesses.clear()
            runs.clear()
            assert zero_sum_value(matrix) == reference_zero_sum_value([[F(v) for v in row] for row in matrix])
            assert guesses != [None] and len(runs) <= (kind == "binary"), (kind, matrix, guesses, runs)
            pivoted += len(runs)
    assert pivoted > 0, pivoted
    matrix = _huge_matrix(rng, 400, 20, 20)
    guesses.clear()
    runs.clear()
    zero_sum_value(matrix)
    assert guesses != [None] and runs == [], runs


def test_mixed_magnitude_lps_the_guess_cannot_see_run_blands_rule_once(monkeypatch):
    """Game LPs whose entries are k * 10**-300, k or k * 10**300: scaled to
    its largest entry, a column's smaller entries round to 0 or below the
    tolerance, so many guesses fail the integer check. Each LP then runs
    Bland's rule exactly once, and every result is the reference's."""
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2038)
    uncertified = 0
    for _ in range(30):
        size = rng.randint(3, 6)
        a = [[F(rng.randint(1, 9)) * F(10) ** (300 * rng.choice((-1, 0, 1))) for _ in range(size)] for _ in range(size)]
        ones = [F(1)] * size
        runs.clear()
        assert simplex_fractions(simplex_max(a, ones, ones)) == reference_simplex(a, ones, ones), a
        assert len(runs) <= 1, runs
        uncertified += len(runs)
    assert uncertified > 5, uncertified


def test_bench_shaped_game_lps_are_certified_without_a_pivot(monkeypatch):
    # The 20x20 and 25x25 zero-sum LPs of CO-CO on k/d payoffs (d <= 12):
    # every optimum is unique, and the guess finds its support.
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2032)
    entry = _entry_maker(rng, "rational")
    for size in (20,) * 8 + (25,) * 2:
        matrix = [[entry() for _ in range(size)] for _ in range(size)]
        result = zero_sum_value(matrix, scale=2)
        assert runs == [], matrix
        if size == 20:
            with monkeypatch.context() as patch:
                patch.setattr(lp, "_float_support", lambda tableau: None)
                assert zero_sum_value(matrix, scale=2) == result
            runs.clear()


def test_a_guessed_optimum_that_may_not_be_unique_goes_straight_to_blands_rule(monkeypatch):
    # {0,1} 20x20 games: the guess proves the basis it found optimal, but
    # with a zero value or reduced cost, so it may not be the only optimal
    # basis and Bland's rule runs once, at once.
    loops = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(7)
    runs = []
    for _ in range(10):
        matrix = [[F(rng.randint(0, 1)) for _ in range(20)] for _ in range(20)]
        loops.clear()
        result = zero_sum_value(matrix)
        runs.append(len(loops))
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_float_support", lambda tableau: None)
            assert zero_sum_value(matrix) == result
    assert sorted(runs) == [0] * 3 + [1] * 7


def test_permuting_actions_permutes_a_unique_zero_sum_optimum(monkeypatch):
    """k/d matrices up to 20x20 whose optimum the guess certifies as unique,
    with no pivot loop: relabelling the rows and the columns relabels both
    optimal strategies the same way and leaves the value as it is."""
    runs = _recorded_pivot_loops(monkeypatch)
    rng = random.Random(2034)
    entry = _entry_maker(rng, "rational")
    certified = 0
    for _ in range(60):
        rows, cols = rng.randint(2, 20), rng.randint(2, 20)
        matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
        runs.clear()
        value, row, col = zero_sum_value(matrix)
        if runs:
            continue
        certified += 1
        row_order, col_order = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
        permuted = [[matrix[i][j] for j in col_order] for i in row_order]
        assert zero_sum_value(permuted) == (
            value,
            tuple(row[i] for i in row_order),
            tuple(col[j] for j in col_order),
        ), matrix
    assert certified > 50, certified


# Int matrices over a scale whose entries and scale share a common factor.
# ``zero_sum_value`` leaves it in the LP data, with no gcd to divide it out;
# with the float guess off, Bland's rule, which positive scaling does not
# change, takes the same pivots as on the data of the matching Fraction
# matrix; with it on, the guess certifies both with no pivot.
COMMON_FACTOR_CASES = [
    (100, 1, [[9, -11, -2, 0, -5, 2], [-10, -7, 8, 6, 3, -8], [1, 0, 2, -3, -7, -12], [-8, 10, -1, -2, -6, -5]]),
    (3, 3, [[-4, 2, -5, 6, -7, -1], [-2, 2, -8, 0, 6, -2], [-1, -9, 7, -8, -1, 4], [-8, 9, 7, 9, 9, -5],
            [-9, 0, 4, 8, 4, -2], [6, 4, -6, -2, -1, -9]]),
]


def test_an_int_matrix_over_a_scale_has_the_value_of_its_fraction_matrix(monkeypatch):
    """``zero_sum_value(ints, scale=s)`` returns what the matching Fraction
    matrix gives, with the float guess on and off, a common factor of the
    entries and the scale included; so does a Fraction matrix over a
    scale."""
    entering = []
    exchange = lp.exchange

    def recorded(rows, r, c, det):
        entering.append(c)
        return exchange(rows, r, c, det)

    monkeypatch.setattr(lp, "exchange", recorded)
    guess = lp._float_support
    for guessed in (True, False):
        monkeypatch.setattr(lp, "_float_support", guess if guessed else lambda tableau: None)
        for factor, scale, ints in COMMON_FACTOR_CASES:
            entering.clear()
            expected = zero_sum_value([[F(v, scale) for v in row] for row in ints])
            pivots = entering[:]
            entering.clear()
            assert zero_sum_value([[factor * v for v in row] for row in ints], scale=factor * scale) == expected
            assert entering == pivots and bool(pivots) == (not guessed), (factor, scale, entering, pivots)
        rng = random.Random(1956)
        common = 0
        for k in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            low, high = ((0, 1), (-9, 9), (-12, 12))[k % 3]
            factor = rng.choice((1, 1, 2, 6))
            ints = tuple(tuple(factor * rng.randint(low, high) for _ in range(cols)) for _ in range(rows))
            scale = rng.choice((1, 2, 3, 4, 6, 12, 24))
            fractions = [[F(v, scale) for v in row] for row in ints]
            expected = zero_sum_value(fractions)
            assert zero_sum_value(ints, scale=scale) == expected, (ints, scale)
            common += math.gcd(scale, *(v for row in ints for v in row)) > 1
            halves = [[v / 2 for v in row] for row in fractions]
            assert zero_sum_value(fractions, scale=2) == zero_sum_value(halves)
        assert common > 100, common


@pytest.mark.parametrize("scale", [0, -1, True, 2.0, F(2), F(1, 2), "2", None])
def test_the_scale_of_a_zero_sum_matrix_is_a_positive_int(scale):
    with pytest.raises(BadParameter, match="positive int"):
        zero_sum_value([[1, 0], [0, 1]], scale=scale)


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
        value, row_strategy, _ = reference_zero_sum_value(gains)
        if value > 0:
            return ("mixed", tuple((b, w) for b, w in zip(others_alive, row_strategy) if w > 0))
    return None


def _random_binary_game(rng):
    """A seeded game of 2-3 players with 3-5 actions each and {0,1} payoffs,
    so many zero-sum LPs of its dominance checks are degenerate. A mixed
    dominator needs three actions, and is rarer with more opponent
    profiles."""
    n = rng.randint(2, 3)
    shape = [rng.randint(3, 5) for _ in range(n)]

    def table(depth):
        if depth == n:
            return [rng.randint(0, 1) for _ in range(n)]
        return [table(depth + 1) for _ in range(shape[depth])]

    return make_game([f"P{i + 1}" for i in range(n)], [[f"s{k + 1}" for k in range(size)] for size in shape], table(0))


def _huge_payoff_game():
    """A seeded 4x4 game of payoffs k * 2**1100 + j: every entry of the
    zero-sum LPs of its mixed dominance checks is too large for a float, and
    the float guess reads them scaled."""
    rng = random.Random(1100)
    big = 2**1100
    rows = [[rng.randint(-9, 9) * big + rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    table = [[(rows[r][c], rng.randint(-9, 9) * big) for c in range(4)] for r in range(4)]
    return make_game(["R", "C"], [[f"r{k}" for k in range(4)], [f"c{k}" for k in range(4)]], table)


def _random_survivor_sets():
    """400 seeded games, integer payoffs, then k/d with d <= 12, then {0,1},
    each with a random nonempty set of surviving actions per player."""
    rng = random.Random(1996)
    for k in range(400):
        g = random_game(rng) if k < 150 else random_rational_game(rng) if k < 300 else _random_binary_game(rng)
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


def test_find_dominator_matches_reference_on_random_survivor_sets(monkeypatch):
    """Integer payoffs, then payoffs k/d with d <= 12, where the integer
    view's common scale is rarely 1, then {0,1} payoffs, and last payoffs
    of 2**1100 scale, whose LPs the float guess reads scaled: the
    dominators, mixed ones with their weights, equal those of the Fraction
    reference."""
    runs = _recorded_pivot_loops(monkeypatch)
    huge = _huge_payoff_game()
    found = {"pure": 0, "mixed": 0, "mixed {0,1}": 0}
    for g, alive in itertools.chain(_random_survivor_sets(), [(huge, [frozenset(range(n)) for n in huge.shape])]):
        binary = {v for u in g.payoffs for v in u} <= {0, 1}
        for i in range(g.num_players):
            for action in sorted(alive[i]):
                for mode in DominanceMode:
                    got = _find_dominator(g, i, action, alive, mode)
                    assert got == reference_find_dominator(g, i, action, alive, mode)
                    if got is not None:
                        found[got[0]] += 1
                        found["mixed {0,1}"] += binary and got[0] == "mixed"
    assert found["pure"] > 300 and found["mixed"] > 30 and found["mixed {0,1}"] > 5, found
    # The last game's mixed dominator comes from a certified guess.
    runs.clear()
    dominator = _find_dominator(huge, 1, 2, [frozenset(range(4))] * 2, DominanceMode.ALLOW_MIXED)
    assert dominator == ("mixed", ((0, F(17, 23)), (1, F(6, 23)))) and runs == [], runs


def test_best_response_filter_skips_checks_and_no_dominated_action(monkeypatch):
    """On the same survivor sets, in both modes: a best response in some
    surviving column is never dominated by the reference's check, and
    ``_find_dominator`` returns None for it without an LP. In mixed mode
    the filter spares LPs the reference runs; in pure mode, pure checks."""
    lps = []
    zero_sum_value = rationalizability.zero_sum_value

    def counted(matrix, **kwargs):
        lps.append(len(matrix))
        return zero_sum_value(matrix, **kwargs)

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


def reference_rationalizable_periodic(g, policy=TiePolicy.LEX):
    """``rationalizable_periodic`` as first written, on the game: it builds
    the periodicity graph under ``policy`` and runs IESDS with mixed
    dominators itself."""
    periodic = periodic_actions(build_periodicity_graph(g, policy))
    survivors = iesds(g, DominanceMode.ALLOW_MIXED).survivors
    return tuple(p & s for p, s in zip(periodic, survivors))


def _rationalizability_test_games(rng, count):
    """2-4 players: the even games with {0,1} payoffs, so best deviations
    tie; of the odd ones, every other has k/d payoffs, the rest integers."""
    for k, g in enumerate(_cycle_test_games(rng, count)):
        yield random_rational_game(rng) if k % 4 == 3 else g


def _degenerate_or(compute):
    try:
        return compute()
    except DegenerateArgmax as exc:
        return ("DegenerateArgmax", str(exc))


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_rationalizable_periodic_of_a_graph_matches_the_game_level_reference(policy):
    rng = random.Random(1959)
    outcomes = []
    for g in _rationalizability_test_games(rng, 120):
        expected = _degenerate_or(lambda: reference_rationalizable_periodic(g, policy))
        found = _degenerate_or(
            lambda: rationalizable_periodic(build_periodicity_graph(g, policy), iesds(g, DominanceMode.ALLOW_MIXED))
        )
        assert found == expected
        outcomes.append(found)
    sets = [o for o in outcomes if o[0] != "DegenerateArgmax"]
    # Some games leave a player a rationalizable periodic action, some none.
    assert any(any(o) for o in sets) and any(not all(o) for o in sets)
    raised = len(outcomes) - len(sets)
    assert raised == 0 if policy is TiePolicy.LEX else 30 < raised < 90, raised


def test_mixed_iesds_matches_the_fraction_reference():
    """Survivors and traces of IESDS with mixed dominators, on {0,1},
    integer and k/d games of 2-4 players, on {0,1} games with up to 5
    actions and on payoffs of 2**1100 scale, equal those of the
    every-player loop on the Fraction dominance check."""
    rng = random.Random(1960)
    games = list(_rationalizability_test_games(rng, 120))
    games += [_random_binary_game(rng) for _ in range(60)] + [_huge_payoff_game()]
    mixed = []
    for g in games:
        want = reference_iesds(g, DominanceMode.ALLOW_MIXED, reference_find_dominator)
        assert iesds(g, DominanceMode.ALLOW_MIXED) == want, g
        mixed.append(sum(e.dominator[0] == "mixed" for e in want.trace))
    assert sum(mixed[:120]) > 5 and sum(mixed[120:-1]) > 5 and mixed[-1] > 0, mixed


def _bench_shaped_game(rng, size):
    """A 2-player size x size game of payoffs k/d in [-9, 9] with d <= 12,
    as the benchmark's ``analyze`` inputs are drawn."""

    def payoff():
        d = rng.randint(1, 12)
        return F(rng.randint(-9 * d, 9 * d), d)

    labels = [f"s{k}" for k in range(size)]
    return make_game(["R", "C"], [labels, labels], [[(payoff(), payoff()) for _ in range(size)] for _ in range(size)])


def test_mixed_iesds_on_bench_shaped_games_runs_no_pivot_loop(monkeypatch):
    """Steps, not time: on seeded 8x8 and 10x10 games with k/d payoffs, the
    float guess certifies every dominance LP, so none runs a pivot loop of
    any rule. That is what keeps solving each of them to its optimum
    cheap."""
    runs = _recorded_pivot_loops(monkeypatch)
    lps = []
    solve = rationalizability.zero_sum_value

    def counted(matrix):
        lps.append(matrix)
        return solve(matrix)

    monkeypatch.setattr(rationalizability, "zero_sum_value", counted)
    rng = random.Random(2036)
    for size in (8,) * 12 + (10,) * 4:
        iesds(_bench_shaped_game(rng, size), DominanceMode.ALLOW_MIXED)
    assert runs == [] and len(lps) > 100, (runs, len(lps))


def _action_labels(g, sets):
    return {g.players[i]: sorted(g.actions[i][a] for a in actions) for i, actions in enumerate(sets)}


def test_analyze_reports_the_library_sets(tmp_path, capsys):
    rng = random.Random(1961)
    players = set()
    for k, g in enumerate(_rationalizability_test_games(rng, 24)):
        path = tmp_path / f"seeded{k}.game.json"
        path.write_text(serialize_game(g))
        for policy in TiePolicy:
            code = cli.main(["analyze", str(path), "--format", "machine", "--tie-policy", policy.value])
            out = capsys.readouterr().out
            try:
                graph = build_periodicity_graph(g, policy)
            except DegenerateArgmax:
                assert (code, out) == (cli.EXIT_DEGENERATE, "")
                continue
            assert code == 0
            survivors = iesds(g, DominanceMode.ALLOW_MIXED)
            doc = json.loads(out)
            assert doc["periodic_actions"] == _action_labels(g, periodic_actions(graph))
            assert doc["iesds_survivors"] == _action_labels(g, survivors.survivors)
            assert doc["rationalizable_periodic"] == _action_labels(g, rationalizable_periodic(graph, survivors))
            assert doc["rationalizable_periodic"] == _action_labels(g, reference_rationalizable_periodic(g, policy))
            players.add(g.num_players)
    assert players == {2, 3, 4}


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
        for nxt in graph.edges[node]:
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


class _RecordingEdges(dict):
    """An edge table that records every node whose targets are looked up."""

    def __init__(self, edges):
        super().__init__(edges)
        self.expanded = []

    def __getitem__(self, node):
        self.expanded.append(node)
        return super().__getitem__(node)


def _count_expanded(graph):
    """Record every node whose successors the search asks for. The cyclic
    set is computed first, so only the searches' own lookups are seen."""
    graph.cyclic_nodes
    edges = _RecordingEdges(graph.edges)
    object.__setattr__(graph, "edges", edges)
    return edges.expanded


def test_cycle_search_matches_the_rotate_and_dedupe_reference():
    # The last graphs have a node on a cycle pointing at a node on none.
    rng = random.Random(1972)
    graphs = [build_periodicity_graph(g) for g in _cycle_test_games(rng, 60)] + _games_with_cycle_exits(rng, 4)
    cycles_seen = degenerate = off_cycle = 0
    for graph in graphs:
        degenerate += bool(graph.degenerate_flags)
        off_cycle += len(graph.nodes) - len(graph.cyclic_nodes)
        for max_len in range(2, len(graph.nodes) + 1):
            expected = reference_all_cycles(graph, max_len)
            assert all_cycles(graph, max_len) == expected
            cycles_seen += len(expected)
            for node in graph.nodes:
                assert enumerate_cycles(graph, node, max_len) == reference_enumerate_cycles(graph, node, max_len)
    assert cycles_seen > 500 and degenerate >= 10 and off_cycle >= 40, (cycles_seen, degenerate, off_cycle)


def _cycle_exits(graph):
    """Edges from a node on a cycle to a node on none."""
    cyclic = graph.cyclic_nodes
    return [(v, w) for v in cyclic for w in graph.edges[v] if w not in cyclic]


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


def _games_with_cycle_exits(rng, count):
    """The first ``count`` seeded random 3-4 player games whose graph has a
    node on a cycle pointing at a node on none."""
    graphs = []
    while len(graphs) < count:
        graph = build_periodicity_graph(random_game(rng, rng.randint(3, 4)))
        if _cycle_exits(graph):
            graphs.append(graph)
    return graphs


def test_cycle_searches_succeed_at_their_exact_budget_and_stop_one_below(monkeypatch):
    rng = random.Random(1975)
    graphs = [build_periodicity_graph(g) for g in _cycle_test_games(rng, 12)] + _games_with_cycle_exits(rng, 2)
    searches = []
    for graph in graphs:
        searches.append(functools.partial(all_cycles, graph, len(graph.nodes)))
        searches += [functools.partial(enumerate_cycles, graph, node, len(graph.nodes)) for node in sorted(graph.cyclic_nodes)]
    found = [search() for search in searches]
    for search, cycles in zip(searches, found):
        monkeypatch.setattr(periodicity, "MAX_CYCLES", len(cycles))
        assert search() == cycles
        monkeypatch.setattr(periodicity, "MAX_CYCLES", len(cycles) - 1)
        message = f"the periodicity graph has more than {len(cycles) - 1} cycles to report"
        with pytest.raises(SizeLimit, match=f"^{re.escape(message)}$"):
            search()
    assert len(searches) > 50 and sum(map(len, found)) > 1000


def reference_random_game(rng, num_players=None):
    """``random_game`` as first written: one ``randint(-9, 9)`` per payoff."""
    n = num_players if num_players is not None else rng.randint(2, 4)
    shape = [rng.randint(2, 4) for _ in range(n)]
    vectors = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(math.prod(shape))]
    actions = [[f"s{k + 1}" for k in range(size)] for size in shape]
    return Game([f"P{i + 1}" for i in range(n)], actions, tuple(tuple(map(Fraction, v)) for v in vectors))


def test_random_games_draw_what_one_randint_per_payoff_draws():
    for seed in range(100):
        rng, reference = random.Random(seed), random.Random(seed)
        for k in range(20):
            n = (None, 2, 3, 4)[k % 4]
            assert random_game(rng, n) == reference_random_game(reference, n)
            assert rng.getstate() == reference.getstate()


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


def _integer_expectation_bayes(rng):
    """Payoffs k/3 under a prior of 1/4 per entry, the payoffs of the two
    thetas summing to a multiple of 4 at every profile, so every ex-ante and
    interim expectation is an integer: the sums over ``dp * du`` and over
    ``du`` times the masses reduce to scale 1."""
    players, actions = ("A", "B"), (("U", "D"), ("L", "R", "M"))
    profiles = list(itertools.product(range(2), range(3)))
    first = [[rng.randint(-9, 9) for _ in players] for _ in profiles]
    second = [[12 * rng.randint(-3, 3) - x for x in vec] for vec in first]
    games = tuple(Game(players, actions, tuple(tuple(F(x, 3) for x in vec) for vec in table))
                  for table in (first, second))
    prior = {(theta, (t, 0)): F(1, 4) for theta in range(2) for t in range(2)}
    return BayesianGame(("th", "thp"), (("t", "tp"), ("u",)), prior, games)


def test_games_built_from_integers_equal_the_public_constructors():
    rng = random.Random(2021)
    games = [random_game(rng, n) for n in (None, 2, 3, 4) for _ in range(10)]
    documents = sorted(FIXTURES.glob("*.game.json"))
    games += [parse_game(path.read_text()) for path in documents]
    bayesian = [parse_bayes(path.read_text()) for path in sorted(FIXTURES.glob("*.bayes.json"))]
    bayesian += [_random_bayesian_game(rng, k) for k in range(40)]
    bayesian += [_coprime_prior_game(rng, k) for k in range(40)]
    integral = [_integer_expectation_bayes(rng) for _ in range(5)]
    games += [g for bg in bayesian[:2] for g in bg.games]
    for bg in bayesian + integral:
        for build in (ex_ante_game, interim_game, interim_correlated_game):
            companion = _outcome(build, bg)
            if isinstance(companion, Game):
                games.append(companion)
    for bg in integral:
        assert math.lcm(*(own.scale for own in bg.games[0].own_payoffs)) == 3
        for build, reference in ((ex_ante_game, reference_ex_ante_game), (interim_game, reference_interim_correlated_game)):
            g = build(bg)
            assert g == reference(bg) and all(own.scale == 1 for own in g.own_payoffs)
    assert len(documents) == 5 and sum(len(t) > 1 for bg in bayesian for t in bg.types) >= 40
    for g in games:
        assert_same_as_public(g)


@pytest.mark.parametrize("entry", [0.5, 1.0, True, False, "1", F(1)])
def test_games_built_from_integers_take_only_ints(entry):
    with pytest.raises(ValidationError):
        Game._from_integers(("A", "B"), (("x",), ("l",)), [(1,), (entry,)], (1, 1))


@pytest.mark.parametrize("scales", [(1, 0), (-2, 1), (1.0, 1), (1, True), (F(2), 2), (1,), (1, 1, 1)])
def test_games_built_from_integers_take_one_positive_int_scale_per_player(scales):
    with pytest.raises(ValidationError):
        Game._from_integers(("A", "B"), (("x",), ("l",)), [(1,), (2,)], scales)


def test_games_built_over_several_scales_derive_a_view_per_player():
    g = Game._from_integers(("A", "B"), (("x", "y"), ("l",)), [(3, -6), (2, 5)], (6, 4))
    assert g.payoffs == ((F(1, 2), F(1, 2)), (F(-1), F(5, 4)))
    # A's entries 1/2 and -1 over 2, B's 1/2 and 5/4 over 4.
    assert g.own_payoffs == ((((1,), (-2,)), ((0,),), 2), (((2, 5),), ((0,), (1,)), 4))
    assert_same_as_public(g)


def reference_coco_solution(g):
    """The CO-CO solution as first written: the decomposition as Fraction
    matrices, read off the payoff vectors, and ``zero_sum_value`` on the
    Fraction competitive matrix."""
    rows, cols = g.shape
    u = [[g.payoffs[g.profile_index((r, c))] for c in range(cols)] for r in range(rows)]
    joint = [[x + y for x, y in row] for row in u]
    vsharp = max(map(max, joint))
    tied = tuple((r, c) for r in range(rows) for c in range(cols) if joint[r][c] == vsharp)
    competitive = tuple(tuple(F(x - y, 2) for x, y in row) for row in u)
    vs, row_strategy, col_strategy = zero_sum_value(competitive)
    final = (vsharp / 2 + vs, vsharp / 2 - vs)
    return {
        "vsharp": vsharp,
        "vs": vs,
        "profile": tied[0],
        "tied_profiles": tied,
        "side_payment": final[0] - u[tied[0][0]][tied[0][1]][0],
        "final_payoffs": final,
        "zero_sum_strategies": (row_strategy, col_strategy),
        "cooperative": tuple(tuple(F(x + y, 2) for x, y in row) for row in u),
        "competitive": competitive,
    }


def reference_coco_report(g, solution):
    """``perigame coco --format machine`` as first written: the report of
    Fraction matrices and values, through ``dump_report``."""
    return dump_report({
        "tool_version": __version__,
        "command": "coco",
        "tie_policy": "lex",
        "cooperative_matrix": [list(row) for row in solution["cooperative"]],
        "competitive_matrix": [list(row) for row in solution["competitive"]],
        "vsharp": solution["vsharp"],
        "vs": solution["vs"],
        "profile": [g.actions[0][solution["profile"][0]], g.actions[1][solution["profile"][1]]],
        "tied_profiles": [[g.actions[0][r], g.actions[1][c]] for r, c in solution["tied_profiles"]],
        "side_payment": solution["side_payment"],
        "final_payoffs": list(solution["final_payoffs"]),
        "zero_sum_strategies": [list(s) for s in solution["zero_sum_strategies"]],
    })


def _coco_documents(count):
    """Seeded 1x1 to 7x7 game documents, payoff texts in {0, 1} (degenerate
    games), integers in [-9, 9] and k/d with d up to 12, in turn."""
    rng = random.Random(1950)
    draws = (lambda: str(rng.randint(0, 1)), lambda: str(rng.randint(-9, 9)),
             lambda: f"{rng.randint(-12, 12)}/{rng.randint(1, 12)}")
    for k in range(count):
        rows, cols, draw = rng.randint(1, 7), rng.randint(1, 7), draws[k % 3]
        actions = {"A": [f"r{r}" for r in range(rows)], "B": [f"c{c}" for c in range(cols)]}
        payoffs = [[[draw(), draw()] for _ in range(cols)] for _ in range(rows)]
        yield json.dumps({"players": ["A", "B"], "actions": actions, "payoffs": payoffs})


def test_coco_matches_the_fraction_decomposition_and_its_report(tmp_path, capsys):
    ties = 0
    for k, text in enumerate(_coco_documents(300)):
        g = parse_game(text)
        solution, expected = coco_solution(g), reference_coco_solution(g)
        got = {name: getattr(solution, name) for name in expected if name not in ("cooperative", "competitive")}
        got["cooperative"] = solution.decomposition.cooperative
        got["competitive"] = solution.decomposition.competitive
        assert got == expected, text
        values = [solution.vsharp, solution.vs, solution.side_payment, *solution.final_payoffs,
                  *itertools.chain(*solution.zero_sum_strategies, *got["cooperative"], *got["competitive"])]
        assert {type(v) for v in values} == {Fraction}
        ties += len(solution.tied_profiles) > 1
        path = tmp_path / f"coco{k}.game.json"
        path.write_text(text)
        assert cli.main(["coco", str(path), "--format", "machine"]) == 0
        assert capsys.readouterr().out == reference_coco_report(g, expected), text
    assert ties > 50, ties
