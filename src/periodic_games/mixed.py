"""Mixed periodic strategies and Nash equilibria of bimatrix games.

Both rest on one indifference system: a mixture q on the simplex such that
some rows of a payoff matrix pay the same against q. At a mixed Nash
equilibrium the opponent's mixture makes a player's payoff the same across
the player's own support, rows of the player's own payoff matrix. A
periodic mixture of a player makes the player's own payoff the same across
every opponent pure action, the rows of the transpose of that matrix.
``_equalizer_vertices`` solves the system for both. Nash equilibria are
found by exact support enumeration; degenerate indifference systems
contribute the vertices of their solution segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import BadDimension, Infeasible, SizeLimit
from .game import Game, expected_utility, own_payoff_matrix, validate_game, validate_mixture
from .linalg import affine_dimension, polytope_vertices

Vector = tuple[Fraction, ...]

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


def _equalizer_vertices(
    matrix: Sequence[Sequence[Fraction]], rows: Sequence[int]
) -> list[tuple[Vector, frozenset[int]]]:
    """Vertices of {q on the simplex : (matrix q)_a is equal for every a in
    rows}, sorted, each with its support."""
    base = matrix[rows[0]]
    system = [[Fraction(1)] * len(base)]
    system.extend([x - y for x, y in zip(matrix[a], base)] for a in rows[1:])
    rhs = [Fraction(1)] + [Fraction(0)] * (len(rows) - 1)
    return [
        (q, frozenset(b for b, v in enumerate(q) if v))
        for q in polytope_vertices(system, rhs, len(base))
    ]


def periodic_mixed(g: Game, player: Union[int, str]) -> PeriodicMixed:
    """Payoff-equalizing mixture for one player of a bimatrix game.

    Raises Infeasible when no point of the simplex equalizes the player's
    payoff across all opponent pure actions.
    """
    require_bimatrix(g)
    i = g.player_index(player)
    matrix = own_payoff_matrix(g, i)
    columns = list(zip(*matrix))
    vertices = [p for p, _ in _equalizer_vertices(columns, range(len(columns)))]
    if not vertices:
        raise Infeasible(
            f"no mixture of player {g.players[i]!r} equalizes payoffs across opponent actions"
        )
    best = vertices[0]
    value = sum(matrix[a][0] * best[a] for a in range(len(best)))
    return PeriodicMixed(probabilities=best, value=value, dimension=affine_dimension(vertices))


def invariance_check(g: Game, player: Union[int, str], p: Sequence[Fraction]) -> Fraction:
    """Spread (max - min over opponent pure actions) of the player's payoff at p.

    Zero certifies that p is a periodic mixture. ``p`` must be an exact
    distribution over the player's actions (see ``validate_mixture``).
    """
    require_bimatrix(g)
    i = g.player_index(player)
    validate_mixture(g, i, p)
    matrix = own_payoff_matrix(g, i)
    payoffs = [
        sum(matrix[a][b] * p[a] for a in range(len(matrix)))
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


def _supports(n: int) -> list[tuple[int, ...]]:
    return [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]


def _support_pair_candidates(
    m_row: Sequence[Sequence[Fraction]], m_col: Sequence[Sequence[Fraction]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[Vector], list[Vector]]]:
    """For every support pair (sa, sb): the row mixtures on sa that make the
    column player indifferent across sb, and the column mixtures on sb that
    make the row player indifferent across sa, each sorted.

    The mixtures on sb form a face of the polytope of ``_equalizer_vertices``
    (every q_b >= 0 is a valid inequality), and the vertices of a face are
    the polytope's vertices inside it; so each side is solved once per own
    support and filtered by support per pair.
    """
    col_side = [(sb, frozenset(sb), _equalizer_vertices(m_col, sb)) for sb in _supports(len(m_col))]
    for sa in _supports(len(m_row)):
        q_all = _equalizer_vertices(m_row, sa)
        within_sa = frozenset(sa)
        for sb, within_sb, p_all in col_side:
            yield (
                sa,
                sb,
                [p for p, support in p_all if support <= within_sa],
                [q for q, support in q_all if support <= within_sb],
            )


def nash_support_enumeration(g: Game) -> list[EquilibriumReport]:
    """All extreme Nash equilibria of a bimatrix game, canonically sorted.

    For each support pair the candidates are the vertices of the exact
    indifference systems on the simplex (``_support_pair_candidates``);
    rank-deficient systems yield every vertex of their solution segment.
    Candidates are kept iff neither player has a profitable pure deviation.
    """
    require_bimatrix(g)
    if max(g.shape) > MAX_SUPPORT_ACTIONS:
        raise SizeLimit(f"support enumeration limited to {MAX_SUPPORT_ACTIONS} actions per player")
    m_row = own_payoff_matrix(g, 0)
    m_col = own_payoff_matrix(g, 1)

    found: dict[tuple[Vector, Vector], EquilibriumReport] = {}
    for _, _, p_candidates, q_candidates in _support_pair_candidates(m_row, m_col):
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
