"""Mixed periodic strategies and Nash equilibria of bimatrix games.

A periodic mixture for a player equalizes that player's own expected payoff
across every opponent pure action, so the opponent's choice cannot move it.
Nash equilibria are found by exact support enumeration; degenerate
indifference systems contribute the vertices of their solution segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import BadDimension, Infeasible, SizeLimit
from .game import Game, expected_utility, own_payoff_matrix, validate_game
from .linalg import affine_dimension, polytope_vertices, solve_exact

Vector = tuple[Fraction, ...]
# (own support, opponent support) -> the equalizing mixture with exactly that
# opponent support, or None; see _indifference_vertices.
VertexMemo = dict[tuple[tuple[int, ...], tuple[int, ...]], Optional[Vector]]

MAX_SUPPORT_ACTIONS = 6

NASH = "nash"
PERIODIC = "periodic"


@dataclass(frozen=True)
class PeriodicMixed:
    """One player's payoff-equalizing mixture.

    ``dimension`` is the dimension of the full feasible polytope;
    ``probabilities`` is its lexicographically smallest vertex.
    """

    probabilities: Vector
    value: Fraction
    dimension: int


@dataclass(frozen=True)
class EquilibriumReport:
    kind: str
    row_strategy: Vector
    col_strategy: Vector
    utilities: tuple[Fraction, Fraction]
    support: tuple[tuple[int, ...], tuple[int, ...]]


def require_bimatrix(g: Game) -> None:
    validate_game(g)
    if g.num_players != 2:
        raise BadDimension(f"operation requires a 2-player game, got {g.num_players}")


def _equalizer_vertices(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Vertices of {p on the simplex : p . column is equal for all columns}."""
    n = len(matrix)
    cols = len(matrix[0])
    system = [[Fraction(1)] * n]
    rhs = [Fraction(1)]
    for k in range(1, cols):
        system.append([matrix[a][k] - matrix[a][0] for a in range(n)])
        rhs.append(Fraction(0))
    return polytope_vertices(system, rhs, n)


def periodic_mixed(g: Game, player: Union[int, str]) -> PeriodicMixed:
    """Payoff-equalizing mixture for one player of a bimatrix game.

    Raises Infeasible when no point of the simplex equalizes the player's
    payoff across all opponent pure actions.
    """
    require_bimatrix(g)
    i = g.player_index(player)
    matrix = own_payoff_matrix(g, i)
    vertices = _equalizer_vertices(matrix)
    if not vertices:
        raise Infeasible(
            f"no mixture of player {g.players[i]!r} equalizes payoffs across opponent actions"
        )
    best = vertices[0]
    value = sum(matrix[a][0] * best[a] for a in range(len(best)))
    return PeriodicMixed(probabilities=best, value=value, dimension=affine_dimension(vertices))


def invariance_check(g: Game, player: Union[int, str], p: Sequence[Fraction]) -> Fraction:
    """Spread (max - min over opponent pure actions) of the player's payoff at p.

    Zero certifies that p is a periodic mixture.
    """
    require_bimatrix(g)
    i = g.player_index(player)
    matrix = own_payoff_matrix(g, i)
    if len(p) != len(matrix):
        raise BadDimension(f"mixture length {len(p)} != {len(matrix)} actions")
    payoffs = [
        sum(matrix[a][b] * Fraction(p[a]) for a in range(len(matrix)))
        for b in range(len(matrix[0]))
    ]
    return max(payoffs) - min(payoffs)


def _support(vec: Vector) -> tuple[int, ...]:
    return tuple(a for a, v in enumerate(vec) if v > 0)


def _is_best_response(matrix: Sequence[Sequence[Fraction]], own: Vector, opp: Vector) -> bool:
    """Every own support action must attain the maximal payoff against opp."""
    payoffs = [
        sum(matrix[a][b] * opp[b] for b in range(len(opp))) for a in range(len(own))
    ]
    best = max(payoffs)
    return all(payoffs[a] == best for a in _support(own))


def nash_support_enumeration(g: Game) -> list[EquilibriumReport]:
    """All extreme Nash equilibria of a bimatrix game, canonically sorted.

    For each support pair the exact indifference system is solved on the
    simplex; rank-deficient systems yield every vertex of their solution
    segment. Candidates are kept iff neither player has a profitable pure
    deviation.
    """
    require_bimatrix(g)
    if max(g.shape) > MAX_SUPPORT_ACTIONS:
        raise SizeLimit(f"support enumeration limited to {MAX_SUPPORT_ACTIONS} actions per player")
    m_row = own_payoff_matrix(g, 0)
    m_col = own_payoff_matrix(g, 1)
    n_row, n_col = g.shape

    found: dict[tuple[Vector, Vector], EquilibriumReport] = {}
    row_memo: VertexMemo = {}
    col_memo: VertexMemo = {}
    row_supports = [
        s for size in range(1, n_row + 1) for s in itertools.combinations(range(n_row), size)
    ]
    col_supports = [
        s for size in range(1, n_col + 1) for s in itertools.combinations(range(n_col), size)
    ]
    for sa in row_supports:
        for sb in col_supports:
            # q makes the row player indifferent across sa; p the column
            # player indifferent across sb.
            q_candidates = _indifference_vertices(m_row, sa, sb, n_col, row_memo)
            if not q_candidates:
                continue
            p_candidates = _indifference_vertices(m_col, sb, sa, n_row, col_memo)
            for p in p_candidates:
                for q in q_candidates:
                    key = (p, q)
                    if key in found:
                        continue
                    if not _is_best_response(m_row, p, q):
                        continue
                    if not _is_best_response(m_col, q, p):
                        continue
                    utils = expected_utility(g, (p, q))
                    found[key] = EquilibriumReport(
                        kind=NASH,
                        row_strategy=p,
                        col_strategy=q,
                        utilities=(utils[0], utils[1]),
                        support=(_support(p), _support(q)),
                    )
    return [found[key] for key in sorted(found)]


def _indifference_vertices(
    matrix: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    opp_support: tuple[int, ...],
    opp_size: int,
    memo: VertexMemo,
) -> list[Vector]:
    """Vertices of opponent mixtures on opp_support equalizing own_support payoffs.

    A vertex is the unique nonnegative solution on some column subset T of
    opp_support, padded with zeros; unique solutions need |T| <= the
    len(own_support) equations. A vertex with a zero inside T is also the
    unique solution on its own support, so each vertex is taken only from
    the T where it is positive, once. It depends only on (own_support, T),
    and ``memo`` keeps it for every opp_support that contains T.
    """
    vertices = []
    for size in range(1, min(len(opp_support), len(own_support)) + 1):
        for cols in itertools.combinations(opp_support, size):
            key = (own_support, cols)
            if key not in memo:
                memo[key] = _positive_indifference_vertex(matrix, own_support, cols, opp_size)
            vertex = memo[key]
            if vertex is not None:
                vertices.append(vertex)
    return sorted(vertices)


def _positive_indifference_vertex(
    matrix: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    cols: tuple[int, ...],
    opp_size: int,
) -> Optional[Vector]:
    """The opponent mixture with support exactly ``cols`` equalizing own_support, if unique."""
    base = matrix[own_support[0]]
    system = [[Fraction(1)] * len(cols)]
    system.extend([matrix[a][b] - base[b] for b in cols] for a in own_support[1:])
    rhs = [Fraction(1)] + [Fraction(0)] * (len(own_support) - 1)
    kind, sol = solve_exact(system, rhs)
    if kind != "unique" or any(v <= 0 for v in sol):
        return None
    full = [Fraction(0)] * opp_size
    for b, v in zip(cols, sol):
        full[b] = v
    return tuple(full)


def periodic_profile_report(g: Game) -> EquilibriumReport:
    """Joint report when both players admit a periodic mixture."""
    require_bimatrix(g)
    p = periodic_mixed(g, 0)
    q = periodic_mixed(g, 1)
    utils = expected_utility(g, (p.probabilities, q.probabilities))
    return EquilibriumReport(
        kind=PERIODIC,
        row_strategy=p.probabilities,
        col_strategy=q.probabilities,
        utilities=(utils[0], utils[1]),
        support=(_support(p.probabilities), _support(q.probabilities)),
    )
