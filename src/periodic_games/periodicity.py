"""Best-deviation maps, the induced periodicity graph, and its cycles.

Each node is a (player, action) pair. For every node and every opponent
there is exactly one outgoing edge: it points at the opponent's component of
the opponent profile that maximizes the node owner's payoff when he plays
that action. Actions lying on directed cycles of this graph are the
periodic actions.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import AnchorNotOnCycle, BadParameter, DegenerateArgmax, SizeLimit
from .game import Game

# The number of cycles can grow exponentially with the game; a call that
# finds more than this many raises SizeLimit rather than run without bound.
MAX_CYCLES = 100_000


class TiePolicy(enum.Enum):
    STRICT = "strict"
    LEX = "lex"


class Node(NamedTuple):
    player: int
    action: int


@dataclass(frozen=True)
class Cycle:
    """Simple directed cycle; the closing edge nodes[-1] -> nodes[0] is implicit."""

    nodes: tuple[Node, ...]

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def player_sequence(self) -> tuple[int, ...]:
        return tuple(n.player for n in self.nodes)


@dataclass(frozen=True)
class PeriodicityGraph:
    """``edges[node]`` holds the node's targets, one per opponent in player
    order; ``target.player`` names the opponent. The edges take part in
    ``==`` but not in the hash, since a dict has none."""

    num_players: int
    nodes: tuple[Node, ...]
    edges: dict[Node, tuple[Node, ...]] = field(hash=False)
    degenerate_flags: frozenset[Node] = frozenset()

    @functools.cached_property
    def cyclic_nodes(self) -> frozenset[Node]:
        """Nodes reachable from themselves; computed once per graph."""
        return frozenset(node for node in self.nodes if _shortest_walk(self, node, {node}) is not None)


def _shortest_walk(graph: PeriodicityGraph, start: Node, targets) -> tuple[Node, ...] | None:
    """Node sequence of a shortest walk of at least one edge from ``start``
    to a node in ``targets``, or None when there is none (breadth-first,
    successors in opponent order)."""
    parents = {start: start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for nxt in graph.edges[current]:
            if nxt in targets:
                walk = [nxt, current]
                while walk[-1] != start:
                    walk.append(parents[walk[-1]])
                return tuple(reversed(walk))
            if nxt not in parents:
                parents[nxt] = current
                frontier.append(nxt)
    return None


def _opponents(g: Game, i: int) -> tuple[int, ...]:
    return tuple(j for j in range(g.num_players) if j != i)


def best_deviation_profile(
    g: Game, player: Union[int, str], action: Union[int, str], policy: TiePolicy = TiePolicy.LEX
) -> tuple[tuple[int, ...], bool]:
    """Opponent profile maximizing the player's payoff at a fixed own action.

    Returns (opponent action indices in player order, strict flag). The flag
    is true iff the maximizer is unique. Ties raise DegenerateArgmax under
    the strict policy and resolve to the lexicographically smallest profile
    otherwise.
    """
    i = g.player_index(player)
    a = g.action_index(i, action)
    rows, opponents, _ = g.own_payoffs[i]
    best_value = max(rows[a])
    best_profiles = [opp for opp, value in zip(opponents, rows[a]) if value == best_value]
    strict = len(best_profiles) == 1
    if not strict and policy is TiePolicy.STRICT:
        raise DegenerateArgmax(Node(i, a), best_profiles)
    return best_profiles[0], strict


def build_periodicity_graph(g: Game, policy: TiePolicy = TiePolicy.LEX) -> PeriodicityGraph:
    """Graph with one edge per (node, opponent); deterministic for a fixed policy."""
    nodes = tuple(Node(i, a) for i in range(g.num_players) for a in range(g.shape[i]))
    edges: dict[Node, tuple[Node, ...]] = {}
    degenerate: set[Node] = set()
    for node in nodes:
        opp_profile, strict = best_deviation_profile(g, node.player, node.action, policy)
        edges[node] = tuple(Node(j, b) for j, b in zip(_opponents(g, node.player), opp_profile))
        if not strict:
            degenerate.add(node)
    return PeriodicityGraph(
        num_players=g.num_players,
        nodes=nodes,
        edges=edges,
        degenerate_flags=frozenset(degenerate),
    )


def nodes_on_cycles(graph: PeriodicityGraph) -> frozenset[Node]:
    """Nodes lying on at least one directed cycle (reachable from themselves)."""
    return graph.cyclic_nodes


def periodic_actions(graph: PeriodicityGraph) -> tuple[frozenset[int], ...]:
    """Per-player sets of actions whose node lies on a cycle of the graph."""
    cyclic = graph.cyclic_nodes
    return tuple(
        frozenset(n.action for n in cyclic if n.player == i) for i in range(graph.num_players)
    )


def _check_max_len(max_len: int) -> None:
    if max_len < 2:
        raise BadParameter(f"max_len must be at least 2, got {max_len}")


def _cycles_from(graph: PeriodicityGraph, start: Node, max_len: int, allowed, budget: int) -> list[Cycle]:
    """Simple cycles through ``start`` of at most ``max_len`` edges whose
    other nodes all lie in ``allowed``, each starting at ``start``, sorted
    by length then node sequence (depth-first search over an explicit stack
    of successor iterators, one per path node, so a path may outgrow the
    recursion limit). SizeLimit once more than ``budget`` are found."""
    cycles: list[Cycle] = []
    path: list[Node] = [start]
    on_path = {start}
    stack = [iter(graph.edges[start])]
    while stack:
        for nxt in stack[-1]:
            if nxt == start:
                if 2 <= len(path) <= max_len:
                    if len(cycles) == budget:
                        raise SizeLimit(f"the periodicity graph has more than {MAX_CYCLES} cycles to report")
                    cycles.append(Cycle(tuple(path)))
                continue
            if nxt in on_path or len(path) >= max_len or nxt not in allowed:
                continue
            path.append(nxt)
            on_path.add(nxt)
            stack.append(iter(graph.edges[nxt]))
            break
        else:  # every successor of the last path node is done: backtrack
            stack.pop()
            on_path.remove(path.pop())
    cycles.sort(key=lambda c: (c.length, c.nodes))
    return cycles


def enumerate_cycles(graph: PeriodicityGraph, through: Node, max_len: int) -> list[Cycle]:
    """All simple cycles through a node with length <= max_len edges.

    Each cycle is reported once, rotated to start at ``through``. Sorted by
    length then node sequence. SizeLimit when there are more than
    ``MAX_CYCLES``.
    """
    _check_max_len(max_len)
    if through not in graph.edges:
        raise AnchorNotOnCycle(f"node {through} not in graph")
    # Every node of a cycle is in the cyclic set, so the search skips the rest.
    return _cycles_from(graph, through, max_len, graph.cyclic_nodes, MAX_CYCLES)


def all_cycles(graph: PeriodicityGraph, max_len: int) -> list[Cycle]:
    """Every simple cycle of the graph with length <= max_len edges, once.

    Each cycle starts at its smallest node. Cycles are grouped by that node
    in increasing order and sorted by length then node sequence within a
    group. The search from a node visits only larger cyclic nodes, so each
    cycle is walked once, from its smallest node (as in Johnson's circuit
    enumeration, SIAM J. Comput. 1975). SizeLimit when there are more than
    ``MAX_CYCLES``, counted across all start nodes.
    """
    _check_max_len(max_len)
    cyclic = graph.cyclic_nodes
    out: list[Cycle] = []
    for node in sorted(cyclic):
        allowed = {n for n in cyclic if n > node}
        out.extend(_cycles_from(graph, node, max_len, allowed, MAX_CYCLES - len(out)))
    return out


def reach_cycle(graph: PeriodicityGraph, start: Node) -> tuple[Node, ...]:
    """Shortest walk from start ending at a node on some cycle.

    The walk has length 0 (just the start node) when the start is already
    periodic; it always exists because every node has out-degree >= 1.
    """
    if start not in graph.edges:
        raise AnchorNotOnCycle(f"node {start} not in graph")
    cyclic = graph.cyclic_nodes
    return (start,) if start in cyclic else _shortest_walk(graph, start, cyclic)


def periodicity_number(c: Cycle, anchor_player: int) -> int:
    """Number of anchor-player nodes on the cycle; 2-player cycles have 2n edges."""
    n = sum(1 for node in c.nodes if node.player == anchor_player)
    if n == 0:
        raise AnchorNotOnCycle(f"player {anchor_player} has no node on cycle {c.nodes}")
    return n
