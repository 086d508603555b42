"""Iterated elimination of strictly dominated strategies and type counting.

Rationalizability is implemented as IESDS with mixed dominators, which is
exact for 2-player games; for three or more players this computes the
correlated variant (independent rationalizability can be strictly smaller).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import NotTwoPlayer
from .game import Game
from .lp import zero_sum_value
from .periodicity import Cycle, PeriodicityGraph, periodic_actions, periodicity_number


class DominanceMode(enum.Enum):
    PURE_ONLY = "pure"
    ALLOW_MIXED = "mixed"


@dataclass(frozen=True)
class Elimination:
    round: int
    player: int
    action: int
    # Either ("pure", action) or ("mixed", ((action, prob), ...)).
    dominator: tuple


@dataclass(frozen=True)
class SurvivorSet:
    survivors: tuple[frozenset[int], ...]
    trace: tuple[Elimination, ...]


def _find_dominator(
    g: Game, i: int, action: int, alive: Sequence[frozenset[int]], mode: DominanceMode
):
    """A strict dominator of ``action`` over surviving opponent profiles, or None.

    An action that is a best response in some surviving column has none: no
    pure or mixed combination of the other rows pays more there, so it
    returns None before the pure check and the LP. Otherwise a pure
    dominator is looked for first, then, in ``ALLOW_MIXED`` mode, a mixed
    one by the zero-sum value of the gains matrix.
    """
    others_alive = sorted(alive[i] - {action})
    if not others_alive:
        return None
    others = [j for j in range(g.num_players) if j != i]
    matrix, opponents, _ = g.own_payoffs[i]
    columns = [
        k
        for k, opp in enumerate(opponents)
        if all(b in alive[j] for j, b in zip(others, opp))
    ]
    base = matrix[action]
    if any(all(matrix[b][k] <= base[k] for b in others_alive) for k in columns):
        return None
    for b in others_alive:
        if all(matrix[b][k] > base[k] for k in columns):
            return ("pure", b)
    if mode is DominanceMode.ALLOW_MIXED and len(others_alive) >= 2:
        # action is dominated by a mixture iff the row player of the gain
        # matrix can guarantee a strictly positive value; its optimal row
        # mixture is then the dominator.
        gains = [[matrix[b][k] - base[k] for k in columns] for b in others_alive]
        value, row_strategy, _ = zero_sum_value(gains)
        if value > 0:
            mixture = tuple(
                (b, w) for b, w in zip(others_alive, row_strategy) if w > 0
            )
            return ("mixed", mixture)
    return None


def iesds(g: Game, mode: DominanceMode = DominanceMode.PURE_ONLY) -> SurvivorSet:
    """Fixed point of round-based simultaneous elimination of dominated actions."""
    alive: list[frozenset[int]] = [frozenset(range(size)) for size in g.shape]
    trace: list[Elimination] = []
    round_number = 0
    shrunk = set(range(g.num_players))  # players who lost an action last round
    while True:
        round_number += 1
        doomed: list[Elimination] = []
        for i in range(g.num_players):
            if not shrunk - {i}:
                # i's columns are unchanged and its dominators only shrank,
                # so none of its actions can have become dominated.
                continue
            for action in sorted(alive[i]):
                dominator = _find_dominator(g, i, action, alive, mode)
                if dominator is not None:
                    doomed.append(Elimination(round_number, i, action, dominator))
        if not doomed:
            break
        for e in doomed:
            alive[e.player] = alive[e.player] - {e.action}
        shrunk = {e.player for e in doomed}
        trace.extend(doomed)
    return SurvivorSet(survivors=tuple(alive), trace=tuple(trace))


def rationalizable_periodic(graph: PeriodicityGraph, survivors: SurvivorSet) -> tuple[frozenset[int], ...]:
    """Per-player intersection of the graph's periodic actions with the IESDS
    survivors (``iesds`` of the same game, in ``ALLOW_MIXED`` mode for
    rationalizability)."""
    return tuple(p & s for p, s in zip(periodic_actions(graph), survivors.survivors))


@dataclass(frozen=True)
class TypeCount:
    n: int
    types: int
    errors: int


def type_count(c: Cycle, anchor_player: int) -> TypeCount:
    """Epistemic type and error counts for a 2-player periodic cycle."""
    players_on_cycle = {node.player for node in c.nodes}
    if len(players_on_cycle) > 2:
        raise NotTwoPlayer(f"cycle visits {len(players_on_cycle)} players")
    n = periodicity_number(c, anchor_player)
    return TypeCount(n=n, types=2 * n, errors=2 * n - 1)
