import random
from fractions import Fraction

import pytest

from periodic_games import (
    Cycle,
    Node,
    TiePolicy,
    build_periodicity_graph,
    enumerate_cycles,
    iesds,
    make_game,
    periodic_actions,
    rationalizable_periodic,
    type_count,
)
from periodic_games.errors import NotTwoPlayer
from periodic_games.generate import random_game
from periodic_games.rationalizability import DominanceMode

from conftest import moved_sets, random_rational_game, transformed_game

F = Fraction


def test_prisoners_dilemma_reduces(prisoners):
    result = iesds(prisoners)
    assert result.survivors == (frozenset({1}), frozenset({1}))
    assert {(e.player, e.action) for e in result.trace} == {(0, 0), (1, 0)}
    assert all(e.dominator == ("pure", 1) for e in result.trace)


def test_no_elimination_in_bos(bos):
    result = iesds(bos, DominanceMode.ALLOW_MIXED)
    assert result.survivors == (frozenset({0, 1}), frozenset({0, 1}))
    assert result.trace == ()


def test_mixed_dominance_found():
    # The middle row loses to the even mix of top and bottom against every
    # column, but to neither pure row alone.
    g = make_game(
        ["A", "B"],
        [["t", "m", "b"], ["l", "r"]],
        [
            [(4, 0), (0, 0)],
            [(1, 0), (1, 0)],
            [(0, 0), (4, 0)],
        ],
    )
    pure = iesds(g, DominanceMode.PURE_ONLY)
    assert pure.survivors[0] == frozenset({0, 1, 2})
    mixed = iesds(g, DominanceMode.ALLOW_MIXED)
    assert mixed.survivors[0] == frozenset({0, 2})
    (elim,) = [e for e in mixed.trace if e.player == 0]
    assert elim.action == 1
    assert elim.dominator[0] == "mixed"
    assert dict(elim.dominator[1]) == {0: F(1, 2), 2: F(1, 2)}


def test_rationalizable_periodic_intersection(prisoners):
    graph = build_periodicity_graph(prisoners)
    assert periodic_actions(graph) == (frozenset({0}), frozenset({0}))
    assert rationalizable_periodic(graph, iesds(prisoners, DominanceMode.ALLOW_MIXED)) == (frozenset(), frozenset())


def test_rationalizable_periodic_bos(bos):
    graph = build_periodicity_graph(bos, TiePolicy.LEX)
    assert rationalizable_periodic(graph, iesds(bos, DominanceMode.ALLOW_MIXED)) == (
        frozenset({0, 1}),
        frozenset({0, 1}),
    )


def test_type_count_two_cycle(bos):
    graph = build_periodicity_graph(bos)
    cycle = enumerate_cycles(graph, Node(0, 0), max_len=4)[0]
    counts = type_count(cycle, 0)
    assert (counts.n, counts.types, counts.errors) == (1, 2, 1)


def test_type_count_longer_cycle():
    cycle = Cycle((Node(0, 0), Node(1, 0), Node(0, 1), Node(1, 1)))
    counts = type_count(cycle, 0)
    assert (counts.n, counts.types, counts.errors) == (2, 4, 3)


def test_type_count_rejects_three_players():
    cycle = Cycle((Node(0, 0), Node(1, 0), Node(2, 0)))
    with pytest.raises(NotTwoPlayer):
        type_count(cycle, 0)


@pytest.mark.parametrize("mode", list(DominanceMode))
def test_iesds_survivors_follow_relabelling_and_positive_affine_maps(mode):
    """IESDS survivors move with a permutation of the players and of each
    player's actions, and stay put under a positive affine map of one
    player's payoffs."""
    rng = random.Random(1953)
    eliminated = 0
    for k in range(60):
        g = random_rational_game(rng) if k % 2 else random_game(rng)
        order = rng.sample(range(g.num_players), g.num_players)
        action_orders = [rng.sample(range(n), n) for n in g.shape]
        i = rng.randrange(g.num_players)
        a, b = F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))

        def affine(u):
            return u[:i] + (a * u[i] + b,) + u[i + 1:]

        survivors = iesds(g, mode).survivors
        moved = transformed_game(g, order, action_orders, affine)
        assert iesds(moved, mode).survivors == moved_sets(survivors, order, action_orders)
        eliminated += sum(n - len(s) for n, s in zip(g.shape, survivors))
    assert eliminated > 30
