import itertools
import math
import random
import sys
from collections import deque
from fractions import Fraction

import pytest

from periodic_games import (
    Node,
    TiePolicy,
    best_deviation_profile,
    build_periodicity_graph,
    enumerate_cycles,
    make_game,
    nodes_on_cycles,
    periodic_actions,
    periodicity_number,
    reach_cycle,
)
from periodic_games import Game, periodicity
from periodic_games.errors import AnchorNotOnCycle, BadParameter, DegenerateArgmax, IndexOutOfRange, SizeLimit
from periodic_games.generate import random_game
from periodic_games.io import parse_game
from periodic_games.periodicity import Cycle, PeriodicityGraph, all_cycles

from conftest import (
    brute_force_deviation,
    many_cycles_game,
    moved_sets,
    random_rational_game,
    recursion_limit,
    shift_game,
    transformed_game,
)


def test_best_deviation_bos(bos):
    # a1 pays best against b1, a2 against b2, and symmetrically for B.
    assert best_deviation_profile(bos, 0, 0) == ((0,), True)
    assert best_deviation_profile(bos, 0, 1) == ((1,), True)
    assert best_deviation_profile(bos, 1, 0) == ((0,), True)
    assert best_deviation_profile(bos, 1, 1) == ((1,), True)


def test_graph_edges_bos(bos):
    graph = build_periodicity_graph(bos)
    assert graph.edges[Node(0, 0)] == (Node(1, 0),)
    assert graph.edges[Node(0, 1)] == (Node(1, 1),)
    assert graph.edges[Node(1, 0)] == (Node(0, 0),)
    assert graph.edges[Node(1, 1)] == (Node(0, 1),)
    assert not graph.degenerate_flags


def test_all_actions_periodic_bos(bos):
    assert periodic_actions(build_periodicity_graph(bos)) == (frozenset({0, 1}), frozenset({0, 1}))


def test_two_cycles_bos(bos):
    graph = build_periodicity_graph(bos)
    cycles = enumerate_cycles(graph, Node(0, 0), max_len=4)
    assert [c.nodes for c in cycles] == [(Node(0, 0), Node(1, 0))]
    cycles = enumerate_cycles(graph, Node(0, 1), max_len=4)
    assert [c.nodes for c in cycles] == [(Node(0, 1), Node(1, 1))]


def test_strict_policy_raises_on_tie():
    flat = make_game(["A", "B"], [["x", "y"], ["l", "r"]], [[(0, 0)] * 2] * 2)
    with pytest.raises(DegenerateArgmax):
        best_deviation_profile(flat, 0, 0, TiePolicy.STRICT)


def test_tied_profiles_come_in_lexicographic_order_on_three_players():
    # The middle player's action b1 ties at four (A, C) profiles; every other
    # entry is lower. The tie list and the lex choice follow (A, C) order.
    ties = {(0, 1), (1, 0), (1, 2), (2, 1)}

    def vector(a, b, c):
        own = 9 if b == 1 and (a, c) in ties else a - b - c
        return (a + c, own, b * c)

    table = [[[vector(a, b, c) for c in range(3)] for b in range(3)] for a in range(3)]
    g = make_game(["A", "B", "C"], [["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"]], table)
    with pytest.raises(DegenerateArgmax) as info:
        best_deviation_profile(g, "B", "b1", TiePolicy.STRICT)
    assert info.value.node == Node(1, 1)
    assert info.value.tied_profiles == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert best_deviation_profile(g, "B", "b1", TiePolicy.LEX) == ((0, 1), False)


@pytest.mark.parametrize("action", [-1, 2, "z", True, 0.0])
def test_best_deviation_rejects_an_unknown_action(bos, action):
    with pytest.raises(IndexOutOfRange):
        best_deviation_profile(bos, 1, action)


def test_lex_policy_flags_ties():
    flat = make_game(["A", "B"], [["x", "y"], ["l", "r"]], [[(0, 0)] * 2] * 2)
    profile, strict = best_deviation_profile(flat, 0, 0, TiePolicy.LEX)
    assert profile == (0,) and not strict
    graph = build_periodicity_graph(flat, TiePolicy.LEX)
    assert Node(0, 0) in graph.degenerate_flags


def test_reach_cycle_trivial_when_periodic(bos):
    graph = build_periodicity_graph(bos)
    for node in graph.nodes:
        assert reach_cycle(graph, node) == (node,)


def test_reach_cycle_walks_into_cycle(four_by_four):
    graph = build_periodicity_graph(four_by_four)
    cyclic = nodes_on_cycles(graph)
    for node in graph.nodes:
        walk = reach_cycle(graph, node)
        assert walk[0] == node
        assert walk[-1] in cyclic
        assert len(walk) <= len(graph.nodes)
        for src, dst in zip(walk, walk[1:]):
            assert dst in graph.edges[src]


def test_reach_cycle_rejects_a_node_not_in_the_graph(bos):
    # enumerate_cycles names the missing node as reach_cycle does.
    graph = build_periodicity_graph(bos)
    for node in (Node(0, 2), Node(2, 0)):
        with pytest.raises(AnchorNotOnCycle, match="not in graph"):
            reach_cycle(graph, node)
        with pytest.raises(AnchorNotOnCycle, match="not in graph"):
            enumerate_cycles(graph, node, 4)


def test_graphs_compare_by_their_edges():
    actions = [["x", "y"], ["l", "r"]]
    first = make_game(["A", "B"], actions, [[(2, 1), (0, 0)], [(0, 0), (1, 2)]])
    second = make_game(["A", "B"], actions, [[(0, 1), (2, 0)], [(1, 0), (0, 2)]])
    a, b = build_periodicity_graph(first), build_periodicity_graph(second)
    assert (a.nodes, a.degenerate_flags) == (b.nodes, b.degenerate_flags)
    assert a.edges != b.edges
    assert a != b
    assert len({a, b}) == 2
    again = build_periodicity_graph(first)
    assert again == a and hash(again) == hash(a)


def test_enumerate_cycles_min_length():
    flat = make_game(["A", "B"], [["x"], ["l"]], [[(0, 0)]])
    graph = build_periodicity_graph(flat)
    with pytest.raises(BadParameter):
        enumerate_cycles(graph, Node(0, 0), max_len=1)


@pytest.mark.parametrize("max_len", [1, 0, -3])
def test_all_cycles_min_length(bos, max_len):
    with pytest.raises(BadParameter):
        all_cycles(build_periodicity_graph(bos), max_len)


def test_periodicity_number(bos):
    graph = build_periodicity_graph(bos)
    cycle = enumerate_cycles(graph, Node(0, 0), max_len=4)[0]
    assert periodicity_number(cycle, 0) == 1
    assert periodicity_number(cycle, 1) == 1
    with pytest.raises(AnchorNotOnCycle):
        periodicity_number(cycle, 2)


def test_edges_match_brute_force_on_random_games():
    rng = random.Random(7)
    games = [random_game(rng) for _ in range(50)]
    games += [random_rational_game(rng) for _ in range(50)]
    for g in games:
        graph = build_periodicity_graph(g)
        for node in graph.nodes:
            expected = brute_force_deviation(g, node.player, node.action)
            assert graph.edges[node] == tuple(Node(j, b) for j, b in expected.items())


def test_three_player_edges_have_one_target_per_opponent():
    rng = random.Random(11)
    g = random_game(rng, num_players=3)
    graph = build_periodicity_graph(g)
    for node in graph.nodes:
        assert [target.player for target in graph.edges[node]] == [
            j for j in range(3) if j != node.player
        ]


def test_periodic_actions_follow_relabelling_and_positive_affine_maps():
    """Periodic actions move with a permutation of the players and of each
    player's actions, and stay put under a positive affine map of one
    player's payoffs. Games with a degenerate node are left out, because
    the lexicographic tie-break depends on the order."""
    rng = random.Random(2020)
    checked = 0
    for k in range(120):
        g = random_rational_game(rng) if k % 2 else random_game(rng)
        graph = build_periodicity_graph(g)
        if graph.degenerate_flags:
            continue
        order = rng.sample(range(g.num_players), g.num_players)
        action_orders = [rng.sample(range(n), n) for n in g.shape]
        i = rng.randrange(g.num_players)
        a, b = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        def affine(u):
            return u[:i] + (a * u[i] + b,) + u[i + 1:]

        moved = transformed_game(g, order, action_orders, affine)
        assert periodic_actions(build_periodicity_graph(moved)) == moved_sets(periodic_actions(graph), order, action_orders)
        checked += 1
    assert checked > 50


def test_cycle_searches_stop_past_max_cycles(monkeypatch):
    g = random_game(random.Random(3), 3)
    graph = build_periodicity_graph(g)
    cycles = all_cycles(graph, len(graph.nodes))
    anchor = cycles[-1].nodes[0]
    through = enumerate_cycles(graph, anchor, len(graph.nodes))
    # The budget is carried across start nodes: the count is the whole call's.
    assert len({c.nodes[0] for c in cycles}) >= 2 and len(through) >= 2
    monkeypatch.setattr(periodicity, "MAX_CYCLES", len(cycles))
    assert all_cycles(graph, len(graph.nodes)) == cycles
    monkeypatch.setattr(periodicity, "MAX_CYCLES", len(cycles) - 1)
    with pytest.raises(SizeLimit, match=f"more than {len(cycles) - 1} cycles"):
        all_cycles(graph, len(graph.nodes))
    monkeypatch.setattr(periodicity, "MAX_CYCLES", len(through))
    assert enumerate_cycles(graph, anchor, len(graph.nodes)) == through
    monkeypatch.setattr(periodicity, "MAX_CYCLES", len(through) - 1)
    with pytest.raises(SizeLimit):
        enumerate_cycles(graph, anchor, len(graph.nodes))


def test_a_game_with_too_many_cycles_is_a_size_limit():
    graph = build_periodicity_graph(parse_game(many_cycles_game()))
    with pytest.raises(SizeLimit, match="more than 100000 cycles"):
        all_cycles(graph, len(graph.nodes))
    with pytest.raises(SizeLimit, match="more than 100000 cycles"):
        enumerate_cycles(graph, Node(0, 0), len(graph.nodes))


def test_a_cycle_longer_than_the_recursion_limit_is_found():
    n = 150
    graph = build_periodicity_graph(parse_game(shift_game(n)))
    expected = [Cycle(tuple(Node(player, k) for k in range(n) for player in (0, 1)))]
    with recursion_limit(250):
        assert 2 * n > sys.getrecursionlimit()
        assert all_cycles(graph, 2 * n) == expected
        assert enumerate_cycles(graph, Node(0, 0), 2 * n) == expected
        assert enumerate_cycles(graph, Node(1, n - 1), 2 * n) == [Cycle(expected[0].nodes[-1:] + expected[0].nodes[:-1])]


def per_node_graph(g, policy):
    """The periodicity graph built one node at a time, as a reference: each
    node lists every opponent profile at its row's maximum and takes the
    first, and under the strict policy the first tied node in node order
    raises."""
    nodes = tuple(Node(i, a) for i in range(g.num_players) for a in range(g.shape[i]))
    edges, degenerate = {}, set()
    for node in nodes:
        rows, opponents, _ = g.own_payoffs[node.player]
        row = rows[node.action]
        tied = [opp for opp, value in zip(opponents, row) if value == max(row)]
        if len(tied) > 1:
            if policy is TiePolicy.STRICT:
                raise DegenerateArgmax(node, tied)
            degenerate.add(node)
        others = [j for j in range(g.num_players) if j != node.player]
        edges[node] = tuple(Node(j, b) for j, b in zip(others, tied[0]))
    return PeriodicityGraph(g.num_players, nodes, edges, frozenset(degenerate))


def bfs_cyclic_nodes(graph):
    """The nodes reachable from themselves, one breadth-first search per
    node, as a reference."""
    cyclic = set()
    for start in graph.nodes:
        seen = set(graph.edges[start])
        frontier = deque(seen)
        while frontier and start not in seen:
            for nxt in graph.edges[frontier.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if start in seen:
            cyclic.add(start)
    return frozenset(cyclic)


def binary_game(rng):
    """A seeded game of 2-4 players with 2-4 actions each and payoffs in
    {0, 1}: most of its argmaxes tie."""
    n = rng.randint(2, 4)
    shape = [rng.randint(2, 4) for _ in range(n)]
    vectors = [[rng.randint(0, 1) for _ in range(n)] for _ in range(math.prod(shape))]
    actions = [[f"s{k + 1}" for k in range(size)] for size in shape]
    return Game._from_integers([f"P{i + 1}" for i in range(n)], actions, list(zip(*vectors)), (1,) * n)


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_graph_matches_the_per_node_construction_and_cycles_the_searches_per_node(policy):
    rng = random.Random(24)
    games = [binary_game(rng) if k % 2 else random_game(rng) for k in range(120)]
    raised = 0
    for g in games:
        try:
            expected = per_node_graph(g, policy)
        except DegenerateArgmax as reference:
            with pytest.raises(DegenerateArgmax) as info:
                build_periodicity_graph(g, policy)
            assert (info.value.node, info.value.tied_profiles) == (reference.node, reference.tied_profiles)
            raised += 1
            continue
        graph = build_periodicity_graph(g, policy)
        assert graph == expected and graph.nodes == expected.nodes
        assert graph.degenerate_flags == expected.degenerate_flags
        assert graph.cyclic_nodes == bfs_cyclic_nodes(expected)
        for node in graph.nodes:
            profile, strict = best_deviation_profile(g, node.player, node.action, policy)
            assert graph.edges[node] == tuple(Node(j, b) for j, b in zip(
                (j for j in range(g.num_players) if j != node.player), profile))
            assert strict == (node not in graph.degenerate_flags)
    # Under the strict policy most games raise (nearly every {0,1} one) and
    # the rest still compare.
    assert raised == (99 if policy is TiePolicy.STRICT else 0)


def test_cyclic_nodes_take_one_pass_and_no_walk(monkeypatch):
    n = 200
    pairs = list(itertools.product(range(n), repeat=2))
    columns = [[int(a == b) for a, b in pairs], [int(a == (b + 1) % n) for a, b in pairs]]
    g = Game._from_integers(["A", "B"], [[f"a{k}" for k in range(n)], [f"b{k}" for k in range(n)]], columns, (1, 1))
    graph = build_periodicity_graph(g)
    walk = periodicity._shortest_walk
    walks = []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(periodicity, "_shortest_walk", counted)
    assert graph.cyclic_nodes == frozenset(graph.nodes) and len(graph.nodes) == 2 * n
    assert walks == []
    # reach_cycle still walks when its start is off every cycle.
    tail = Game._from_integers(["A", "B"], [["a0", "a1", "a2"], ["b0", "b1"]],
                               [(1, 0, 0, 1, 0, 2), (1, 0, 0, 1, 2, 0)], (1, 1))
    tail_graph = build_periodicity_graph(tail)
    assert Node(0, 2) not in tail_graph.cyclic_nodes
    assert reach_cycle(tail_graph, Node(0, 2))[-1] in tail_graph.cyclic_nodes and len(walks) == 1
