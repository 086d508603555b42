"""Mixed periodic strategies and Nash equilibria of bimatrix games.

Both rest on one indifference system: a mixture q on the simplex such that
some rows of a payoff matrix pay the same against q. At a mixed Nash
equilibrium the opponent's mixture makes a player's payoff the same across
the player's own support, rows of the player's own payoff matrix. A
periodic mixture of a player makes the player's own payoff the same across
every opponent pure action, the rows of the transpose of that matrix.
``_equalizer_vertices`` solves the system for both, on the payoff matrix
scaled to integers once per call. Nash equilibria are found by exact
support enumeration; degenerate indifference systems contribute the
vertices of their solution segments. Each Nash candidate vertex carries
the opponent's best-response set and best payoff, computed once by integer
dot products, so a support pair is tested by set inclusion alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import BadDimension, Infeasible, SizeLimit
from .game import Game, own_payoff_matrix, validate_game, validate_mixture
from .linalg import affine_dimension, common_denominator, polytope_vertices, scaled

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


def _integer_matrix(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """A payoff matrix times the lcm of all its denominators, and that lcm.

    A positive common scale changes no indifference and no best response.
    """
    scale = common_denominator(v for row in matrix for v in row)
    return [scaled(row, scale) for row in matrix], scale


def _equalizer_vertices(matrix: Sequence[Sequence[int]], rows: Sequence[int]) -> list[Vector]:
    """Vertices of {q on the simplex : (matrix q)_a is equal for every a in
    rows}, sorted."""
    base = matrix[rows[0]]
    system = [[1] * len(base)]
    system.extend([x - y for x, y in zip(matrix[a], base)] for a in rows[1:])
    rhs = [1] + [0] * (len(rows) - 1)
    return polytope_vertices(system, rhs, len(base))


def periodic_mixed(g: Game, player: Union[int, str]) -> PeriodicMixed:
    """Payoff-equalizing mixture for one player of a bimatrix game.

    Raises Infeasible when no point of the simplex equalizes the player's
    payoff across all opponent pure actions.
    """
    require_bimatrix(g)
    i = g.player_index(player)
    matrix = own_payoff_matrix(g, i)
    columns = list(zip(*_integer_matrix(matrix)[0]))
    vertices = _equalizer_vertices(columns, range(len(columns)))
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


class _Candidate(NamedTuple):
    """A vertex of an indifference system, with the best responses to it of
    the matrix's owner (the rows paying most against ``mixture``) and their
    payoff."""

    mixture: Vector
    support: frozenset[int]
    replies: frozenset[int]
    best: Fraction


def _candidates(matrix: Sequence[Sequence[int]], scale: int, rows: Sequence[int]) -> list[_Candidate]:
    """``_equalizer_vertices(matrix, rows)``, each vertex with its best
    responses; ``matrix`` is a payoff matrix times ``scale``."""
    out = []
    for q in _equalizer_vertices(matrix, rows):
        den = common_denominator(q)
        weights = [(b, w) for b, w in enumerate(scaled(q, den)) if w]
        payoffs = [sum(row[b] * w for b, w in weights) for row in matrix]
        best = max(payoffs)
        replies = frozenset(a for a, v in enumerate(payoffs) if v == best)
        support = frozenset(b for b, _ in weights)
        out.append(_Candidate(q, support, replies, Fraction(best, scale * den)))
    return out


def _mutual_best_responses(p: _Candidate, q: _Candidate) -> bool:
    """Each mixture of the pair is supported on best responses to the other."""
    return p.support <= q.replies and q.support <= p.replies


def _supports(n: int) -> list[tuple[int, ...]]:
    return [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]


def _support_pair_candidates(
    m_row: Sequence[Sequence[Fraction]], m_col: Sequence[Sequence[Fraction]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[_Candidate], list[_Candidate]]]:
    """For every support pair (sa, sb): the row mixtures on sa that make the
    column player indifferent across sb, and the column mixtures on sb that
    make the row player indifferent across sa, each sorted and carrying the
    other player's best responses.

    The mixtures on sb form a face of the polytope of ``_equalizer_vertices``
    (every q_b >= 0 is a valid inequality), and the vertices of a face are
    the polytope's vertices inside it; so each side is solved once per own
    support, on the matrices scaled to integers once, and filtered by
    support per pair.
    """
    row_ints, row_scale = _integer_matrix(m_row)
    col_ints, col_scale = _integer_matrix(m_col)
    col_side = [(sb, frozenset(sb), _candidates(col_ints, col_scale, sb)) for sb in _supports(len(m_col))]
    for sa in _supports(len(m_row)):
        q_all = _candidates(row_ints, row_scale, sa)
        within_sa = frozenset(sa)
        for sb, within_sb, p_all in col_side:
            yield (
                sa,
                sb,
                [p for p in p_all if p.support <= within_sa],
                [q for q in q_all if q.support <= within_sb],
            )


def nash_support_enumeration(g: Game) -> list[EquilibriumReport]:
    """All extreme Nash equilibria of a bimatrix game, canonically sorted.

    For each support pair the candidates are the vertices of the exact
    indifference systems on the simplex (``_support_pair_candidates``);
    rank-deficient systems yield every vertex of their solution segment.
    Candidates are kept iff each is supported on best responses to the
    other; the utilities are then the two best payoffs.
    """
    require_bimatrix(g)
    if max(g.shape) > MAX_SUPPORT_ACTIONS:
        raise SizeLimit(f"support enumeration limited to {MAX_SUPPORT_ACTIONS} actions per player")
    pairs = _support_pair_candidates(own_payoff_matrix(g, 0), own_payoff_matrix(g, 1))
    found: dict[tuple[Vector, Vector], tuple[Fraction, Fraction]] = {}
    for _, _, p_candidates, q_candidates in pairs:
        for p in p_candidates:
            for q in q_candidates:
                if _mutual_best_responses(p, q):
                    found[p.mixture, q.mixture] = (q.best, p.best)
    return [
        EquilibriumReport(
            kind=NASH,
            row_strategy=p,
            col_strategy=q,
            utilities=utilities,
            support=(_support(p), _support(q)),
        )
        for (p, q), utilities in sorted(found.items())
    ]


def periodic_profile_report(g: Game) -> EquilibriumReport:
    """Joint report when both players admit a periodic mixture.

    Each player's payoff is its mixture's value whatever the opponent plays.
    """
    require_bimatrix(g)
    p = periodic_mixed(g, 0)
    q = periodic_mixed(g, 1)
    return EquilibriumReport(
        kind=PERIODIC,
        row_strategy=p.probabilities,
        col_strategy=q.probabilities,
        utilities=(p.value, q.value),
        support=(_support(p.probabilities), _support(q.probabilities)),
    )
