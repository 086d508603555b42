import itertools
import random
from fractions import Fraction

import pytest

from periodic_games import (
    expected_utility,
    invariance_check,
    make_game,
    mixed,
    nash_support_enumeration,
    periodic_mixed,
)
from periodic_games.errors import BadDimension, Infeasible, SizeLimit, ValidationError
from periodic_games.mixed import MAX_SUPPORT_ACTIONS, PeriodicMixed

from conftest import transformed_game

F = Fraction


def test_periodic_mixed_coordination(coordination):
    a = periodic_mixed(coordination, 0)
    b = periodic_mixed(coordination, 1)
    assert a.probabilities == (F(1, 3), F(2, 3))
    assert a.value == F(2, 3)
    assert b.probabilities == (F(1, 2), F(1, 2))
    assert b.value == F(1, 2)
    assert a.dimension == 0 and b.dimension == 0


def test_periodic_mixed_is_opponent_invariant(coordination, bos):
    for g in (coordination, bos):
        for i in (0, 1):
            p = periodic_mixed(g, i)
            assert invariance_check(g, i, p.probabilities) == 0


def test_periodic_mixed_bos(bos):
    assert periodic_mixed(bos, 0).probabilities == (F(1, 3), F(2, 3))
    assert periodic_mixed(bos, 1).probabilities == (F(2, 3), F(1, 3))


def test_periodic_mixed_infeasible(four_by_four):
    # The column player's payoff columns cannot be equalized in this game.
    with pytest.raises(Infeasible):
        periodic_mixed(four_by_four, 1)


def test_periodic_mixed_four_by_four_row(four_by_four):
    p = periodic_mixed(four_by_four, 0)
    assert p.probabilities == (F(20, 99), F(10, 33), F(20, 99), F(29, 99))
    assert p.value == F(290, 99)
    assert invariance_check(four_by_four, 0, p.probabilities) == 0


def test_nash_coordination(coordination):
    eqs = nash_support_enumeration(coordination)
    strategies = [(e.row_strategy, e.col_strategy) for e in eqs]
    assert ((F(1), F(0)), (F(1), F(0))) in strategies
    assert ((F(0), F(1)), (F(0), F(1))) in strategies
    mixed = [e for e in eqs if e.support == ((0, 1), (0, 1))]
    assert len(mixed) == 1
    assert mixed[0].row_strategy == (F(1, 2), F(1, 2))
    assert mixed[0].col_strategy == (F(1, 3), F(2, 3))
    assert mixed[0].utilities == (F(2, 3), F(1, 2))


def test_nash_bos(bos):
    eqs = nash_support_enumeration(bos)
    assert len(eqs) == 3
    mixed = [e for e in eqs if e.support == ((0, 1), (0, 1))][0]
    assert mixed.row_strategy == (F(2, 3), F(1, 3))
    assert mixed.col_strategy == (F(1, 3), F(2, 3))
    assert mixed.utilities == (F(2, 3), F(2, 3))


def test_nash_unique_pure_four_by_four(four_by_four):
    eqs = nash_support_enumeration(four_by_four)
    assert len(eqs) == 1
    assert eqs[0].support == ((1,), (1,))
    assert eqs[0].utilities == (F(7), F(7))


def test_nash_all_candidates_are_equilibria(bos, coordination, prisoners):
    # Re-verify the reported profiles against every pure deviation.
    for g in (bos, coordination, prisoners):
        for e in nash_support_enumeration(g):
            utils = expected_utility(g, (e.row_strategy, e.col_strategy))
            assert utils == e.utilities
            for a in range(g.shape[0]):
                dev = tuple(F(1) if k == a else F(0) for k in range(g.shape[0]))
                assert expected_utility(g, (dev, e.col_strategy))[0] <= utils[0]
            for b in range(g.shape[1]):
                dev = tuple(F(1) if k == b else F(0) for k in range(g.shape[1]))
                assert expected_utility(g, (e.row_strategy, dev))[1] <= utils[1]


def test_periodic_profile_utilities_in_coordination(coordination):
    # When both players mix periodically, each one's value is its utility.
    p, q = periodic_mixed(coordination, 0), periodic_mixed(coordination, 1)
    assert (p.value, q.value) == (F(2, 3), F(1, 2))
    assert expected_utility(coordination, (p.probabilities, q.probabilities)) == (F(2, 3), F(1, 2))


def test_size_limit():
    size = MAX_SUPPORT_ACTIONS + 1
    table = [[(0, 0)] * size for _ in range(size)]
    g = make_game(
        ["A", "B"],
        [[f"a{k}" for k in range(size)], [f"b{k}" for k in range(size)]],
        table,
    )
    with pytest.raises(SizeLimit):
        nash_support_enumeration(g)


def _zero_three_player_game():
    return make_game(
        ["A", "B", "C"],
        [["x", "y"], ["l", "r"], ["u", "v"]],
        [[[(0, 0, 0)] * 2] * 2] * 2,
    )


def test_requires_two_players():
    # Nash equilibria are bimatrix-only.
    with pytest.raises(BadDimension):
        nash_support_enumeration(_zero_three_player_game())


def test_periodic_mixtures_take_n_player_games():
    g = _zero_three_player_game()
    # Every mixture equalizes; the lexicographically smallest vertex wins.
    assert periodic_mixed(g, "C") == PeriodicMixed(probabilities=(F(0), F(1)), value=F(0), dimension=1)
    assert invariance_check(g, 1, [F(1, 2), F(1, 2)]) == 0


def _four_by_two_by_two_games(seed, count=300):
    """Seeded games in which player A has 4 actions and B and C 2 each,
    payoffs in [-3, 3]."""
    rng = random.Random(seed)

    def vector():
        return tuple(F(rng.randint(-3, 3)) for _ in range(3))

    actions = [["a0", "a1", "a2", "a3"], ["b0", "b1"], ["c0", "c1"]]
    return [
        make_game(["A", "B", "C"], actions, [[[vector() for _ in range(2)] for _ in range(2)] for _ in range(4)])
        for _ in range(count)
    ]


def _random_mixture(rng, n):
    weights = [rng.randint(0, 5) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


def test_an_n_player_periodic_mixture_pays_its_value_against_any_opponent_mixtures():
    rng = random.Random(35)
    checked = 0
    for g in _four_by_two_by_two_games(34):
        p = _periodic(g, 0)
        if p is None:
            continue
        assert invariance_check(g, 0, p.probabilities) == 0
        for _ in range(3):
            opponents = (_random_mixture(rng, 2), _random_mixture(rng, 2))
            assert expected_utility(g, (p.probabilities, *opponents))[0] == p.value
        checked += 1
    assert checked > 40


def test_permuting_the_opponents_leaves_the_periodic_mixture_unchanged():
    checked = 0
    for g in _four_by_two_by_two_games(36):
        p = _periodic(g, 0)
        assert _periodic(transformed_game(g, [0, 2, 1]), 0) == p
        checked += p is not None
    assert checked > 40


def test_invariance_check_reads_only_exact_distributions(bos):
    # A zero spread for a non-mixture would be a false certificate.
    for p in ([0, 0], [F(1, 2), F(1, 3)], [F(2), F(-1)], [0.1, 0.9], [True, False], ["1", "0"]):
        with pytest.raises(ValidationError):
            invariance_check(bos, 0, p)
    assert invariance_check(bos, 0, [1, 0]) == invariance_check(bos, 0, [F(1), F(0)]) == F(2)


def _bimatrix(rng, rows, cols, binary, den=3):
    def entry():
        return rng.randint(0, 1) if binary else F(rng.randint(-9, 9), rng.randint(1, den))

    return make_game(
        ["R", "C"],
        [[f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)]],
        [[(entry(), entry()) for _ in range(cols)] for _ in range(rows)],
    )


def _seeded_games(seed, count=60):
    """Seeded 1x1 to 4x4 bimatrix games; every third one has {0,1} payoffs."""
    rng = random.Random(seed)
    return [_bimatrix(rng, rng.randint(1, 4), rng.randint(1, 4), k % 3 == 0) for k in range(count)]


def _remade(g, players, actions, payoff, transpose=False):
    """A bimatrix game whose payoff vector at (r, c) of ``g``'s shape is
    ``payoff(g.payoffs at (r, c))``, the table transposed if asked."""
    rows, cols = g.shape
    at = [[payoff(g.payoffs[g.profile_index((r, c))]) for c in range(cols)] for r in range(rows)]
    table = [list(col) for col in zip(*at)] if transpose else at
    return make_game(players, actions, table)


def _equilibria(g):
    return sorted((e.row_strategy, e.col_strategy, e.utilities) for e in nash_support_enumeration(g))


def _periodic(g, i):
    try:
        return periodic_mixed(g, i)
    except Infeasible:
        return None


def test_periodic_profile_utilities_are_the_values_against_any_opponent_action():
    checked = 0
    for g in _seeded_games(33, count=400):
        p, q = _periodic(g, 0), _periodic(g, 1)
        if p is None or q is None:
            continue
        assert expected_utility(g, (p.probabilities, q.probabilities)) == (p.value, q.value)
        for b in range(g.shape[1]):
            pure = tuple(F(int(k == b)) for k in range(g.shape[1]))
            assert expected_utility(g, (p.probabilities, pure))[0] == p.value
        checked += 1
    assert checked > 20


def test_swapping_the_players_swaps_equilibria_and_periodic_mixtures():
    for g in _seeded_games(31):
        swapped = _remade(g, ["C", "R"], [g.actions[1], g.actions[0]], lambda u: (u[1], u[0]), True)
        assert _equilibria(swapped) == sorted((q, p, (u1, u0)) for p, q, (u0, u1) in _equilibria(g))
        assert _periodic(swapped, 0) == _periodic(g, 1)
        assert _periodic(swapped, 1) == _periodic(g, 0)


def test_permuting_a_players_actions_permutes_the_equilibria():
    rng = random.Random(32)
    for g in _seeded_games(32):
        for i in (0, 1):
            # Action k of player i in the permuted game is its action perm[k].
            perm = list(range(g.shape[i]))
            rng.shuffle(perm)
            keep = [list(range(n)) for n in g.shape]
            keep[i] = perm
            actions = [[g.actions[j][k] for k in keep[j]] for j in (0, 1)]
            table = [[g.payoffs[g.profile_index((r, c))] for c in keep[1]] for r in keep[0]]
            permuted = make_game(g.players, actions, table)

            def relabel(equilibrium):
                moved = list(equilibrium)
                moved[i] = tuple(equilibrium[i][k] for k in perm)
                return tuple(moved)

            assert _equilibria(permuted) == sorted(relabel(e) for e in _equilibria(g))


@pytest.mark.parametrize("a, b", [(F(3), F(-2)), (F(1, 7), F(5, 2)), (F(1), F(1))])
def test_a_positive_affine_map_of_one_players_payoffs(a, b):
    """Equilibria and the player's own periodic mixture are unchanged;
    the player's utilities and periodic value follow the map."""
    for g in _seeded_games(33):
        mapped = _remade(g, g.players, g.actions, lambda u: (a * u[0] + b, u[1]))
        assert _equilibria(mapped) == [(p, q, (a * u0 + b, u1)) for p, q, (u0, u1) in _equilibria(g)]
        before, after = _periodic(g, 0), _periodic(mapped, 0)
        assert (before is None) == (after is None)
        if before is not None:
            assert after.probabilities == before.probabilities
            assert after.dimension == before.dimension
            assert after.value == a * before.value + b


def _labelled_bimatrix(rows, cols, payoff):
    return make_game(
        ["R", "C"],
        [[f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)]],
        [[payoff(r, c) for c in range(cols)] for r in range(rows)],
    )


def _identity(n):
    return _labelled_bimatrix(n, n, lambda r, c: (int(r == c), int(r == c)))


def _uniform(n, support):
    return tuple(F(1, len(support)) if k in support else F(0) for k in range(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_an_identity_coordination_game_has_one_equilibrium_per_nonempty_action_set(n):
    """Both players mixing uniformly on the same nonempty action set S, each
    getting 1/|S|, are its extreme equilibria: 2^n - 1 of them."""
    g = _identity(n)
    expected = sorted(
        (_uniform(n, s), _uniform(n, s), (F(1, size), F(1, size)))
        for size in range(1, n + 1)
        for s in itertools.combinations(range(n), size)
    )
    assert len(expected) == 2**n - 1
    assert _equilibria(g) == expected


def _pure(n, a):
    return tuple(F(int(k == a)) for k in range(n))


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (4, 1), (3, 7), (6, 6), (MAX_SUPPORT_ACTIONS, 4),
                                        (MAX_SUPPORT_ACTIONS, MAX_SUPPORT_ACTIONS)])
def test_a_constant_game_has_its_pure_profiles_as_extreme_equilibria(rows, cols):
    """Every mixture is a best response to every other, so the extreme
    equilibria are the pairs of vertices of the two simplices."""
    u = (F(-3, 7), F(2))
    g = _labelled_bimatrix(rows, cols, lambda r, c: u)
    expected = [(_pure(rows, r), _pure(cols, c), u) for r in range(rows) for c in range(cols)]
    assert _equilibria(g) == sorted(expected)
    assert len(expected) == rows * cols


@pytest.mark.parametrize("n", [2, 5, 8])
def test_the_nash_walk_pivots_once_per_vertex_of_the_perturbed_polytope(monkeypatch, n):
    """Each basis is reached by one exchange from a visited basis, and the
    lexicographic ratio test reaches only the vertices of a perturbed,
    nondegenerate Q: all 2^n of the identity game's Q, which is
    nondegenerate already, and k + 1 for a constant game whose owner's
    opponent has k actions (the owner's rows are parallel facets of Q, and
    the perturbation keeps one)."""
    pivots = []
    exchange = mixed.exchange

    def counted(rows, r, c, det):
        pivots.append((r, c))
        return exchange(rows, r, c, det)

    monkeypatch.setattr(mixed, "exchange", counted)
    identity = _identity(n)
    constant = _labelled_bimatrix(4, n, lambda r, c: (F(-3, 7), F(2)))
    for g, owner, vertices in ((identity, 0, 2**n), (identity, 1, 2**n), (constant, 0, n + 1), (constant, 1, 5)):
        pivots.clear()
        mixed._best_response_vertices(g, owner)
        assert len(pivots) == vertices - 1, (g, owner)


def test_permuting_both_players_actions_permutes_the_equilibria():
    rng = random.Random(37)
    checked = 0
    for k in range(48):
        rows, cols = rng.randint(3, 6), rng.randint(3, 6)
        g = _bimatrix(rng, rows, cols, binary=k % 2 == 0, den=1)
        # Action c of player j in the permuted game is its action orders[j][c].
        orders = [rng.sample(range(n), n) for n in g.shape]
        permuted = transformed_game(g, [0, 1], orders)
        moved = sorted(
            (tuple(p[a] for a in orders[0]), tuple(q[b] for b in orders[1]), u) for p, q, u in _equilibria(g)
        )
        assert _equilibria(permuted) == moved
        checked += len(moved)
    assert checked > 150
