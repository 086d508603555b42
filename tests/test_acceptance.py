"""Acceptance gate.

Ten end-to-end checks, one test each, all in exact rational arithmetic with
zero tolerance. Each test gets its own PASS/FAIL line on stderr (see the
logreport hook in conftest). The whole gate runs in well under a minute.
"""

import itertools
import random
from fractions import Fraction

import pytest

from periodic_games import (
    Node,
    TiePolicy,
    build_periodicity_graph,
    coco_solution,
    decompose,
    enumerate_cycles,
    ex_ante_game,
    expected_utility,
    iesds,
    interim_correlated_game,
    interim_game,
    invariance_check,
    nash_support_enumeration,
    nodes_on_cycles,
    periodic_actions,
    periodic_mixed,
    reach_cycle,
    type_count,
    zero_sum_value,
)
from periodic_games.errors import Infeasible
from periodic_games.generate import random_game
from periodic_games.rationalizability import DominanceMode, _find_dominator

from conftest import brute_force_deviation, own_payoff_matrix, restrict_game

F = Fraction


def test_01_equalizing_profile_matches_mixed_nash_payoffs(coordination):
    """2x2 coordination game: the payoff-equalizing profile reproduces the
    mixed Nash payoffs exactly."""
    eqs = nash_support_enumeration(coordination)
    mixed = [e for e in eqs if e.support == ((0, 1), (0, 1))]
    assert len(mixed) == 1
    assert mixed[0].row_strategy == (F(1, 2), F(1, 2))
    assert mixed[0].col_strategy == (F(1, 3), F(2, 3))
    assert mixed[0].utilities == (F(2, 3), F(1, 2))

    a = periodic_mixed(coordination, 0)
    b = periodic_mixed(coordination, 1)
    assert a.probabilities == (F(1, 3), F(2, 3))
    assert b.probabilities == (F(1, 2), F(1, 2))
    joint = expected_utility(coordination, (a.probabilities, b.probabilities))
    assert joint == (F(2, 3), F(1, 2))


def test_02_battle_of_sexes_pure_and_mixed_periodicity(bos):
    """Battle of Sexes: all four actions periodic, both diagonal 2-cycles
    found, and all four cross payoff evaluations equal 2/3."""
    graph = build_periodicity_graph(bos)
    assert periodic_actions(graph) == (frozenset({0, 1}), frozenset({0, 1}))
    assert [c.nodes for c in enumerate_cycles(graph, Node(0, 0), 4)] == [
        (Node(0, 0), Node(1, 0))
    ]
    assert [c.nodes for c in enumerate_cycles(graph, Node(0, 1), 4)] == [
        (Node(0, 1), Node(1, 1))
    ]

    eqs = nash_support_enumeration(bos)
    nash = [e for e in eqs if e.support == ((0, 1), (0, 1))][0]
    assert nash.row_strategy == (F(2, 3), F(1, 3))
    assert nash.col_strategy == (F(1, 3), F(2, 3))

    p_per = periodic_mixed(bos, 0).probabilities
    q_per = periodic_mixed(bos, 1).probabilities
    assert p_per == (F(1, 3), F(2, 3))
    assert q_per == (F(2, 3), F(1, 3))
    assert invariance_check(bos, 0, p_per) == 0
    assert invariance_check(bos, 1, q_per) == 0

    # The four evaluations: each equalizing component pins its owner's (or
    # the opponent's) payoff at 2/3 no matter what the free side plays.
    probes = [(F(1), F(0)), (F(0), F(1)), (F(2, 5), F(3, 5))]
    for free in probes:
        assert expected_utility(bos, (p_per, free))[0] == F(2, 3)
        assert expected_utility(bos, (free, q_per))[1] == F(2, 3)
        assert expected_utility(bos, (free, nash.col_strategy))[0] == F(2, 3)
        assert expected_utility(bos, (nash.row_strategy, free))[1] == F(2, 3)


def test_03_cooperative_competitive_solutions(bos, prisoners):
    """Half-difference matrix of Battle of Sexes plus full solutions of both
    Battle of Sexes and the Prisoner's Dilemma."""
    split = decompose(bos)
    assert split.competitive == ((F(1, 2), F(0)), (F(0), F(-1, 2)))

    s = coco_solution(bos)
    assert s.vsharp == 3
    assert s.vs == 0
    assert s.final_payoffs == (F(3, 2), F(3, 2))
    assert s.side_payment == F(-1, 2)
    assert sum(s.final_payoffs) == s.vsharp

    s = coco_solution(prisoners)
    assert s.vsharp == 8
    assert s.vs == 0
    assert s.side_payment == 0
    assert s.final_payoffs == (F(4), F(4))


def test_04_four_by_four_game_oracle_values(four_by_four):
    """4x4 game: equalizing mixture for the row player verified by an
    independent indifference check, no equalizer for the column player, and
    a unique pure Nash equilibrium."""
    p = periodic_mixed(four_by_four, 0)
    assert p.probabilities == (F(20, 99), F(10, 33), F(20, 99), F(29, 99))
    assert p.value == F(290, 99)
    assert sum(p.probabilities) == 1

    # Independent oracle: every column of the row player's own matrix pays
    # the same against p.
    matrix = own_payoff_matrix(four_by_four, 0)
    columns = {
        sum(matrix[a][b] * p.probabilities[a] for a in range(4)) for b in range(4)
    }
    assert columns == {F(290, 99)}

    with pytest.raises(Infeasible):
        periodic_mixed(four_by_four, 1)

    eqs = nash_support_enumeration(four_by_four)
    assert len(eqs) == 1
    assert eqs[0].support == ((1,), (1,))
    assert eqs[0].utilities == (F(7), F(7))
    # Brute-force verification that (a2, b2) is a mutual best response.
    for a in range(4):
        assert four_by_four.payoffs[four_by_four.profile_index((a, 1))][0] <= 7
    for b in range(4):
        assert four_by_four.payoffs[four_by_four.profile_index((1, b))][1] <= 7


def test_05_existence_and_stability_property_suite():
    """1000 seeded random games: at least one periodic action always exists,
    every walk reaches a cycle within the node count, and every graph edge
    agrees with an independent brute-force argmax."""
    rng = random.Random(20260823)
    for _ in range(1000):
        g = random_game(rng)
        graph = build_periodicity_graph(g, TiePolicy.LEX)
        cyclic = nodes_on_cycles(graph)
        assert cyclic
        for node in graph.nodes:
            expected = brute_force_deviation(g, node.player, node.action)
            assert graph.edges[node] == {j: Node(j, b) for j, b in expected.items()}
            walk = reach_cycle(graph, node)
            assert len(walk) <= len(graph.nodes)
            assert walk[-1] in cyclic


def test_06_two_type_ex_ante_table_and_cycle(two_type_bayes):
    """Two-type game at epsilon = 1/10: all 8 ex-ante entries, and the
    DU <-> R 2-cycle of the game restricted to the iterated-dominance
    survivors, which needs exactly 2 types."""
    g = ex_ante_game(two_type_bayes)
    assert g.actions == (("UU", "UD", "DU", "DD"), ("L", "R"))
    expected = {
        (0, 0): (F(-1, 2), F(1, 10)),
        (0, 1): (F(-1, 2), F(0)),
        (1, 0): (F(1, 2), F(1, 20)),
        (1, 1): (F(-1), F(1, 2)),
        (2, 0): (F(-1), F(1, 20)),
        (2, 1): (F(1, 2), F(1, 2)),
        (3, 0): (F(0), F(0)),
        (3, 1): (F(0), F(1)),
    }
    for profile in g.profiles():
        assert g.payoffs[g.profile_index(profile)] == expected[profile]

    survivors = iesds(g, DominanceMode.ALLOW_MIXED).survivors
    assert survivors == (frozenset({2}), frozenset({1}))
    reduced = restrict_game(g, [sorted(s) for s in survivors])
    assert reduced.actions == (("DU",), ("R",))
    graph = build_periodicity_graph(reduced)
    cycles = enumerate_cycles(graph, Node(0, 0), max_len=4)
    assert [c.nodes for c in cycles] == [(Node(0, 0), Node(1, 0))]
    counts = type_count(cycles[0], 0)
    assert counts.types == 2


def test_07_two_type_interim_game(two_type_bayes):
    """The interim companion is the 3-player two-matrix game with the
    expected entries at epsilon = 1/10, and has periodic actions."""
    g = interim_game(two_type_bayes)
    assert g.players == ("t1", "t1p", "t2")
    assert g.actions == (("U", "D"), ("U", "D"), ("L", "R"))
    expected = {
        (0, 0, 0): (F(1), F(-2), F(1, 10)),
        (0, 0, 1): (F(-2), F(1), F(0)),
        (0, 1, 0): (F(1), F(0), F(1, 20)),
        (0, 1, 1): (F(-2), F(0), F(1, 2)),
        (1, 0, 0): (F(0), F(-2), F(1, 20)),
        (1, 0, 1): (F(0), F(1), F(1, 2)),
        (1, 1, 0): (F(0), F(0), F(0)),
        (1, 1, 1): (F(0), F(0), F(1)),
    }
    for profile in g.profiles():
        assert g.payoffs[g.profile_index(profile)] == expected[profile]
    periodic = periodic_actions(build_periodicity_graph(g))
    assert any(periodic)


def test_08_matching_game_interim_correlated_table(matching_bayes):
    """Single-type matching game: the correlated interim companion is the
    reduced 3x3 table, including the (-9/2, -9/2) block and the zero row
    and column."""
    g = interim_correlated_game(matching_bayes)
    assert g.players == ("1", "2")
    expected = [
        [(F(-9, 2), F(-9, 2)), (F(-9, 2), F(-9, 2)), (F(-10), F(0))],
        [(F(-9, 2), F(-9, 2)), (F(-9, 2), F(-9, 2)), (F(-10), F(0))],
        [(F(0), F(-10)), (F(0), F(-10)), (F(0), F(0))],
    ]
    for r in range(3):
        for c in range(3):
            assert g.payoffs[g.profile_index((r, c))] == expected[r][c]


def test_09_zero_sum_value_property_suite():
    """500 random rational matrices up to 6x6: both returned strategies
    certify the value against every pure response, and the value matches
    pure saddle points when one exists."""
    rng = random.Random(424242)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)]
            for _ in range(rows)
        ]
        value, row, col = zero_sum_value(matrix)
        assert sum(row) == 1 and all(w >= 0 for w in row)
        assert sum(col) == 1 and all(w >= 0 for w in col)
        # Strategy pair certifies maximin = minimax = value exactly.
        for c in range(cols):
            assert sum(row[r] * matrix[r][c] for r in range(rows)) >= value
        for r in range(rows):
            assert sum(col[c] * matrix[r][c] for c in range(cols)) <= value
        pure_maximin = max(min(r_) for r_ in matrix)
        pure_minimax = min(max(matrix[r][c] for r in range(rows)) for c in range(cols))
        assert pure_maximin <= value <= pure_minimax
        if pure_maximin == pure_minimax:
            assert value == pure_maximin


def _sequential_iesds(g, mode, rng):
    """One-at-a-time elimination in shuffled order; strict dominance makes
    the fixed point order independent."""
    alive = [frozenset(range(size)) for size in g.shape]
    while True:
        doomed = [
            (i, action)
            for i in range(g.num_players)
            for action in sorted(alive[i])
            if _find_dominator(g, i, action, alive, mode) is not None
        ]
        if not doomed:
            return tuple(alive)
        i, action = rng.choice(doomed)
        alive[i] = alive[i] - {action}


def test_10_dominance_order_independence_and_type_counts(prisoners, bos, four_by_four):
    """Prisoner's Dilemma collapses to (A2, B2); shuffled elimination orders
    never change the survivor sets; type and error counts satisfy their
    closed forms on every enumerated 2-player cycle."""
    assert iesds(prisoners).survivors == (frozenset({1}), frozenset({1}))

    games = [prisoners, bos, four_by_four]
    rng = random.Random(99)
    games += [random_game(rng, num_players=2) for _ in range(20)]
    for g in games:
        for mode in (DominanceMode.PURE_ONLY, DominanceMode.ALLOW_MIXED):
            reference = iesds(g, mode).survivors
            for seed in range(5):
                shuffled = _sequential_iesds(g, mode, random.Random(seed))
                assert shuffled == reference

    for g in games:
        graph = build_periodicity_graph(g)
        for node in graph.nodes:
            for cycle in enumerate_cycles(graph, node, max_len=len(graph.nodes)):
                assert cycle.length % 2 == 0
                for anchor in (0, 1):
                    counts = type_count(cycle, anchor)
                    assert counts.n == cycle.length // 2
                    assert counts.types == 2 * counts.n
                    assert counts.errors == 2 * counts.n - 1
