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
from typing import Iterator, NamedTuple, Union

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
        """Nodes reachable from themselves, computed once per graph: the
        nodes of the strongly connected components with more than one node
        (no edge joins two nodes of one player, so no node is its own
        successor). One pass of Tarjan's algorithm (SIAM J. Comput. 1972),
        depth first over an explicit stack of successor iterators."""
        order: dict[Node, int] = {}  # discovery index of every node reached
        low: dict[Node, int] = {}  # least index reachable through the node's open subtree
        open_nodes: list[Node] = []  # reached nodes whose component is not yet known
        position: dict[Node, int] = {}  # each open node's index in open_nodes
        cyclic: list[Node] = []

        def reach(node: Node) -> tuple[Node, Iterator[Node]]:
            order[node] = low[node] = len(order)
            position[node] = len(open_nodes)
            open_nodes.append(node)
            return node, iter(self.edges[node])

        for root in self.nodes:
            if root in order:
                continue
            stack = [reach(root)]
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    if nxt not in order:
                        stack.append(reach(nxt))
                        break
                    if nxt in position:
                        low[node] = min(low[node], order[nxt])
                else:  # every successor is done: close the node
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == order[node]:  # the node roots a component: the open nodes from it up
                        component = open_nodes[position[node]:]
                        del open_nodes[position[node]:]
                        for member in component:
                            del position[member]
                        if len(component) > 1:
                            cyclic.extend(component)
        return frozenset(cyclic)

    @functools.cached_property
    def cyclic_view(self) -> tuple[tuple[Node, ...], tuple[tuple[int, ...], ...]]:
        """The cyclic nodes in sorted order, and per node the indices of its cyclic successors in
        opponent order. Indices follow ``Node`` order, so index tuples sort as the nodes they name."""
        nodes = tuple(sorted(self.cyclic_nodes))
        index = dict(zip(nodes, range(len(nodes))))
        return nodes, tuple(tuple(index[m] for m in self.edges[n] if m in index) for n in nodes)


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


def _best_column(row: tuple[int, ...], opponents: tuple[tuple[int, ...], ...], node: Node, policy: TiePolicy) -> tuple[int, bool]:
    """The argmax of one own-payoff row (``OwnPayoffs``) of ``node``: the
    column of the row's first maximum, the lexicographically smallest
    opponent profile, and whether no other column ties it. A tie raises
    DegenerateArgmax under the strict policy, naming the tied profiles in
    lexicographic order."""
    best = max(row)
    strict = row.count(best) == 1
    if not strict and policy is TiePolicy.STRICT:
        raise DegenerateArgmax(node, [opp for opp, value in zip(opponents, row) if value == best])
    return row.index(best), strict


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
    column, strict = _best_column(rows[a], opponents, Node(i, a), policy)
    return opponents[column], strict


def build_periodicity_graph(g: Game, policy: TiePolicy = TiePolicy.LEX) -> PeriodicityGraph:
    """Graph with one edge per (node, opponent); deterministic for a fixed
    policy. Each player's own-payoff rows are read once, in node order, and
    the graph holds one ``Node`` per (player, action)."""
    nodes = [[Node(i, a) for a in range(size)] for i, size in enumerate(g.shape)]
    edges: dict[Node, tuple[Node, ...]] = {}
    degenerate: set[Node] = set()
    for i, (rows, opponents, _) in enumerate(g.own_payoffs):
        others = nodes[:i] + nodes[i + 1:]  # the opponents' nodes, in player order
        for node, row in zip(nodes[i], rows):
            column, strict = _best_column(row, opponents, node, policy)
            edges[node] = tuple(map(list.__getitem__, others, opponents[column]))
            if not strict:
                degenerate.add(node)
    return PeriodicityGraph(
        num_players=g.num_players,
        nodes=tuple(edges),
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


def _cycles_from(successors, start: int, lowest: int, max_len: int, budget: int) -> list[tuple[int, ...]]:
    """Simple cycles through index ``start`` of at most ``max_len`` edges over the
    indices of ``PeriodicityGraph.cyclic_view`` not below ``lowest``, as index tuples
    from ``start``, sorted by length then indices (depth-first search over an explicit
    stack of successor iterators, so a path may outgrow the recursion limit; one flag
    per index blocks the path and the indices below ``lowest``). SizeLimit once more
    than ``budget`` are found."""
    cycles: list[tuple[int, ...]] = []
    path = [start]
    blocked = [True] * lowest + [False] * (len(successors) - lowest)
    blocked[start] = True
    stack = [iter(successors[start])]
    while stack:
        for nxt in stack[-1]:
            if nxt == start:  # no node is its own successor, so the path has 2 nodes or more
                if len(cycles) == budget:
                    raise SizeLimit(f"the periodicity graph has more than {MAX_CYCLES} cycles to report")
                cycles.append(tuple(path))
            elif not blocked[nxt] and len(path) < max_len:
                path.append(nxt)
                blocked[nxt] = True
                stack.append(iter(successors[nxt]))
                break
        else:  # every successor of the last path node is done: backtrack
            stack.pop()
            blocked[path.pop()] = False
    cycles.sort()
    cycles.sort(key=len)
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
    nodes, successors = graph.cyclic_view
    found = _cycles_from(successors, nodes.index(through), 0, max_len, MAX_CYCLES) if through in graph.cyclic_nodes else []
    return [Cycle(tuple(map(nodes.__getitem__, c))) for c in found]


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
    nodes, successors = graph.cyclic_view
    found: list[tuple[int, ...]] = []
    for start in range(len(nodes)):
        found.extend(_cycles_from(successors, start, start, max_len, MAX_CYCLES - len(found)))
    return [Cycle(tuple(map(nodes.__getitem__, c))) for c in found]


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
