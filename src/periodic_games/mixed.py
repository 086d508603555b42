"""Mixed periodic strategies, and Nash equilibria of bimatrix games.

Both rest on one indifference system: a mixture q on the simplex such that
some rows of a payoff matrix pay the same against q. At a mixed Nash
equilibrium the opponent's mixture makes a player's payoff the same across
the player's own support, rows of the player's own payoff matrix. A
periodic mixture of a player makes the player's own payoff the same across
every opponent pure profile, the rows of the transpose of that matrix;
against independent opponent mixtures the payoff is a convex combination
of those, so this is the N-player condition too. ``_equalizer_vertices``
solves the system for both, on the integer payoff view of the game
(``Game.own_payoffs``). Nash equilibria are the completely
labelled pairs of vertices of the two best-response polyhedra; a mixture
is such a vertex iff it is a vertex of the indifference system on its own
best-response rows (Mangasarian 1964), so each own support is solved once
and each vertex kept from exactly one support. Degenerate indifference
systems contribute the vertices of their solution segments. Each vertex
carries the owner's best-response set and best payoff, computed once by
integer dot products, so a pair is tested by set inclusion alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import BadDimension, Infeasible, SizeLimit
from .game import Game, validate_mixture
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
    if g.num_players != 2:
        raise BadDimension(f"operation requires a 2-player game, got {g.num_players}")


def _equalizer_vertices(matrix: Sequence[Sequence[int]], rows: Sequence[int]) -> list[Vector]:
    """Vertices of {q on the simplex : (matrix q)_a is equal for every a in
    rows}, sorted."""
    base = matrix[rows[0]]
    system = [[1] * len(base)]
    system.extend([x - y for x, y in zip(matrix[a], base)] for a in rows[1:])
    rhs = [1] + [0] * (len(rows) - 1)
    return polytope_vertices(system, rhs, len(base))


def _payoffs_against(matrix: Sequence[Sequence[int]], q: Sequence[Fraction]) -> tuple[list[int], int]:
    """Each row of an integer matrix against a mixture q over its columns,
    times the lcm of q's denominators, and that lcm."""
    den = common_denominator(q)
    weights = [(b, w) for b, w in enumerate(scaled(q, den)) if w]
    return [sum(row[b] * w for b, w in weights) for row in matrix], den


def periodic_mixed(g: Game, player: Union[int, str]) -> PeriodicMixed:
    """Payoff-equalizing mixture for one player of an N-player game.

    Raises Infeasible when no point of the simplex equalizes the player's
    payoff across all opponent pure profiles.
    """
    i = g.player_index(player)
    columns = list(zip(*g.own_payoffs[i].rows))
    vertices = _equalizer_vertices(columns, range(len(columns)))
    if not vertices:
        raise Infeasible(
            f"no mixture of player {g.players[i]!r} equalizes payoffs across opponent actions"
        )
    best = vertices[0]
    payoffs, den = _payoffs_against(columns[:1], best)
    value = Fraction(payoffs[0], g.payoff_scale * den)
    return PeriodicMixed(probabilities=best, value=value, dimension=affine_dimension(vertices))


def invariance_check(g: Game, player: Union[int, str], p: Sequence[Fraction]) -> Fraction:
    """Spread (max - min over opponent pure profiles) of the player's payoff at p.

    Zero certifies that p is a periodic mixture. ``p`` must be an exact
    distribution over the player's actions (see ``validate_mixture``).
    """
    i = g.player_index(player)
    validate_mixture(g, i, p)
    payoffs, den = _payoffs_against(list(zip(*g.own_payoffs[i].rows)), p)
    return Fraction(max(payoffs) - min(payoffs), g.payoff_scale * den)


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


def _mutual_best_responses(p: _Candidate, q: _Candidate) -> bool:
    """Each mixture of the pair is supported on best responses to the other."""
    return p.support <= q.replies and q.support <= p.replies


def _best_response_vertices(g: Game, owner: int) -> list[_Candidate]:
    """The opponent mixtures q at the vertices of the owner's best-response
    polyhedron {(q, v) : q on the simplex, M q <= v}, M the owner's payoff
    matrix, each with the owner's best responses to it and their payoff.

    q is such a vertex iff it is a vertex of ``_equalizer_vertices`` on its
    own best-response rows (Mangasarian 1964). Each own support is solved
    once, on the integer view ``g.own_payoffs``, and a vertex is kept only
    from the support equal to its best responses, so it is kept once.
    """
    ints, scale = g.own_payoffs[owner].rows, g.payoff_scale
    out = []
    for size in range(1, len(ints) + 1):
        for rows in itertools.combinations(range(len(ints)), size):
            for q in _equalizer_vertices(ints, rows):
                payoffs, den = _payoffs_against(ints, q)
                best = max(payoffs)
                replies = frozenset(a for a, v in enumerate(payoffs) if v == best)
                if replies == frozenset(rows):
                    support = frozenset(b for b, v in enumerate(q) if v)
                    out.append(_Candidate(q, support, replies, Fraction(best, scale * den)))
    return out


def nash_support_enumeration(g: Game) -> list[EquilibriumReport]:
    """All extreme Nash equilibria of a bimatrix game, canonically sorted.

    The extreme equilibria are the completely labelled pairs of vertices of
    the two best-response polyhedra (Mangasarian 1964): a row mixture p and
    a column mixture q, each supported on best responses to the other
    (``_best_response_vertices``, ``_mutual_best_responses``). Degenerate
    indifference systems contribute every vertex of their solution
    segments. The utilities are the two best payoffs.
    """
    require_bimatrix(g)
    if max(g.shape) > MAX_SUPPORT_ACTIONS:
        raise SizeLimit(f"support enumeration limited to {MAX_SUPPORT_ACTIONS} actions per player")
    p_vertices = _best_response_vertices(g, 1)
    q_vertices = _best_response_vertices(g, 0)
    found = sorted(
        (p.mixture, q.mixture, (q.best, p.best))
        for p in p_vertices
        for q in q_vertices
        if _mutual_best_responses(p, q)
    )
    return [
        EquilibriumReport(
            kind=NASH,
            row_strategy=p,
            col_strategy=q,
            utilities=utilities,
            support=(_support(p), _support(q)),
        )
        for p, q, utilities in found
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
