"""Mixed periodic strategies, and Nash equilibria of bimatrix games.

A periodic mixture of a player makes the player's own payoff the same
across every opponent pure profile, the rows of the transpose of the
player's payoff matrix; against independent opponent mixtures the payoff is
a convex combination of those, so this is the N-player condition too.
``_equalizer_vertices`` gives the vertices of that indifference system, on
the player's integer payoff view over its own scale (``Game.own_payoffs``),
by ``linalg.polytope_vertices``.

Nash equilibria are the completely labelled pairs of vertices of the two
best-response polyhedra (Mangasarian 1964). Each polyhedron's vertices are
those of a polytope Q = {y >= 0 : (M + shift) y <= 1}, found as in lrsNash
(Avis, Rosenberg, Savani and von Stengel 2010): a depth-first walk over the
bases the lexicographic ratio test reaches, one integer pivot
(``linalg.exchange``, the simplex's dictionary step) per basis. Each vertex
carries the owner's best-response set and best payoff, computed once by
integer dot products, so a pair is tested by set inclusion alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import BadDimension, Infeasible, SizeLimit
from .game import Game, validate_mixture
from .linalg import exchange, integer_column, matrix_rank, polytope_vertices

Vector = tuple[Fraction, ...]

MAX_SUPPORT_ACTIONS = 10


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
    row_strategy: Vector
    col_strategy: Vector
    utilities: tuple[Fraction, Fraction]
    support: tuple[tuple[int, ...], tuple[int, ...]]


def require_bimatrix(g: Game) -> None:
    if g.num_players != 2:
        raise BadDimension(f"operation requires a 2-player game, got {g.num_players}")


def _equalizer_system(matrix: Sequence[Sequence[int]], rows: Sequence[int]) -> list[list[int]]:
    """The rows of {q : sum(q) = 1, (matrix q)_a is equal for every a in
    rows}: the all-ones row (right-hand side 1), then each row of ``rows``
    after the first minus the first (right-hand side 0)."""
    base = matrix[rows[0]]
    system = [[1] * len(base)]
    system.extend([x - y for x, y in zip(matrix[a], base)] for a in rows[1:])
    return system


def _equalizer_vertices(matrix: Sequence[Sequence[int]], rows: Sequence[int]) -> list[Vector]:
    """Vertices of {q on the simplex : (matrix q)_a is equal for every a in
    rows}, sorted."""
    rhs = [1] + [0] * (len(rows) - 1)
    return polytope_vertices(_equalizer_system(matrix, rows), rhs, len(matrix[0]))


def _row_payoffs(matrix: Sequence[Sequence[int]], weights: Sequence[int]) -> list[int]:
    """Each row of an integer matrix dotted with integer weights on its columns."""
    nonzero = [(b, w) for b, w in enumerate(weights) if w]
    return [sum(row[b] * w for b, w in nonzero) for row in matrix]


def _payoffs_against(matrix: Sequence[Sequence[int]], q: Sequence[Fraction]) -> tuple[list[int], int]:
    """Each row of an integer matrix against a mixture q over its columns,
    times the lcm of q's denominators, and that lcm."""
    weights, den = integer_column(q)
    return _row_payoffs(matrix, weights), den


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
    value = Fraction(payoffs[0], g.own_payoffs[i].scale * den)
    # The vertices' barycenter is positive exactly on their joint support S,
    # so the polytope's affine hull is the system's solutions that vanish
    # off S, of dimension |S| - rank of the system on S's columns.
    support = sorted({j for v in vertices for j, x in enumerate(v) if x})
    on_support = [[column[j] for j in support] for column in columns]
    dimension = len(support) - matrix_rank(_equalizer_system(on_support, range(len(columns))))
    return PeriodicMixed(probabilities=best, value=value, dimension=dimension)


def invariance_check(g: Game, player: Union[int, str], p: Sequence[Fraction]) -> Fraction:
    """Spread (max - min over opponent pure profiles) of the player's payoff at p.

    Zero certifies that p is a periodic mixture. ``p`` must be an exact
    distribution over the player's actions (see ``validate_mixture``).
    """
    i = g.player_index(player)
    validate_mixture(g, i, p)
    payoffs, den = _payoffs_against(list(zip(*g.own_payoffs[i].rows)), p)
    return Fraction(max(payoffs) - min(payoffs), g.own_payoffs[i].scale * den)


def _support(vec: Vector) -> tuple[int, ...]:
    return tuple(a for a, v in enumerate(vec) if v > 0)


class _Candidate(NamedTuple):
    """An opponent mixture at a vertex of the owner's best-response
    polyhedron, with the owner's best responses to it (the rows paying most
    against ``mixture``) and their payoff."""

    mixture: Vector
    support: frozenset[int]
    replies: frozenset[int]
    best: Fraction


def _mutual_best_responses(p: _Candidate, q: _Candidate) -> bool:
    """Each mixture of the pair is supported on best responses to the other."""
    return p.support <= q.replies and q.support <= p.replies


def _lex_leaving(rows: list[list[int]], basis: Sequence[int], nonbasic: Sequence[int], c: int, det: int) -> int:
    """The row that leaves when nonbasic column ``c`` enters, by the
    lexicographic ratio test of lrs: the smallest ``(rhs, row of B^-1)``
    over the entering coefficient, among the rows where it is positive.

    Row i's entry of B^-1 for slack k is the dictionary entry of slack k
    while it is nonbasic, and ``det`` times a unit vector while it is basic.
    Both vectors are compared by cross-multiplication. The rows of B^-1 are
    independent, so the test never ties; the polytope is bounded, so some
    row is positive in every column.
    """
    best = -1
    for i, row in enumerate(rows):
        a = row[c]
        if a <= 0:
            continue
        if best < 0:
            best = i
            continue
        top = rows[best]
        b = top[c]
        d = row[-1] * b - top[-1] * a
        if d == 0:
            # The ratios tie: compare the rows of B^-1 the same way.
            n = len(nonbasic)
            column = {var - n: j for j, var in enumerate(nonbasic) if var >= n}
            for k in range(len(rows)):
                j = column.get(k)
                if j is None:
                    x = det if basis[i] == n + k else 0
                    y = det if basis[best] == n + k else 0
                else:
                    x, y = row[j], top[j]
                d = x * b - y * a
                if d:
                    break
        if d < 0:
            best = i
    return best


def _best_response_vertices(g: Game, owner: int) -> list[_Candidate]:
    """The opponent mixtures q at the vertices of the owner's best-response
    polyhedron {(q, v) : q on the simplex, M q <= v}, M the owner's payoff
    matrix, each with the owner's best responses to it and their payoff.

    Those are the q = y / sum(y) of the vertices y != 0 of the polytope
    Q = {y >= 0 : (M + shift) y <= 1}, with M the integer view
    ``g.own_payoffs`` shifted to entries >= 1 (von Stengel 2002). The walk
    of lrsNash (Avis, Rosenberg, Savani and von Stengel 2010) visits them:
    from the all-slack basis, feasible since the right-hand side is 1, a
    depth-first walk on an explicit stack pivots each nonbasic column in,
    with the leaving row the lexicographic ratio test gives
    (``_lex_leaving``). The bases it reaches are the vertices of a
    perturbed, nondegenerate Q, whose graph is connected, so every vertex
    of Q is reached, each basis once (a visited set), each by one
    ``linalg.exchange`` from a visited one. A degenerate vertex reached
    from several bases is kept once. Sorted by best responses in
    combination order, then by mixture.
    """
    ints, _, scale = g.own_payoffs[owner]
    shift = 1 - min(min(row) for row in ints)
    n = len(ints[0])
    # One column per nonbasic variable, then the rhs; y_b is variable b and
    # the slack of row a is variable n + a.
    start = [[v + shift for v in row] + [1] for row in ints]
    basis = tuple(range(n, n + len(ints)))
    # A basis is keyed by the bit set of its variables.
    key = sum(1 << var for var in basis)
    seen = {key}
    stack = [(start, basis, tuple(range(n)), 1, key)]
    # Each y != 0 over its entries' gcd: one key per vertex, whatever the
    # basis and its divisor.
    vertices: set[tuple[int, ...]] = set()
    while stack:
        rows, basis, nonbasic, det, key = stack.pop()
        y = [0] * n
        for row, var in zip(rows, basis):
            if var < n:
                y[var] = row[-1]
        common = math.gcd(*y)
        if common:
            vertices.add(tuple(v // common for v in y))
        for c, entering in enumerate(nonbasic):
            r = _lex_leaving(rows, basis, nonbasic, c, det)
            after = key ^ (1 << basis[r]) ^ (1 << entering)
            if after in seen:
                continue
            seen.add(after)
            moved = [row[:] for row in rows]
            moved_det = exchange(moved, r, c, det)
            stack.append((
                moved,
                basis[:r] + (entering,) + basis[r + 1:],
                nonbasic[:c] + (basis[r],) + nonbasic[c + 1:],
                moved_det,
                after,
            ))
    out = []
    for y in vertices:
        # The owner's payoffs against q = y / sum(y), times sum(y).
        total = sum(y)
        payoffs = _row_payoffs(ints, y)
        best = max(payoffs)
        replies = frozenset(a for a, v in enumerate(payoffs) if v == best)
        support = frozenset(b for b, v in enumerate(y) if v)
        q = tuple(Fraction(v, total) for v in y)
        out.append(_Candidate(q, support, replies, Fraction(best, scale * total)))
    out.sort(key=lambda c: (len(c.replies), sorted(c.replies), c.mixture))
    return out


def nash_support_enumeration(g: Game) -> list[EquilibriumReport]:
    """All extreme Nash equilibria of a bimatrix game, canonically sorted.

    The extreme equilibria are the completely labelled pairs of vertices of
    the two best-response polyhedra (Mangasarian 1964): a row mixture p and
    a column mixture q, each supported on best responses to the other
    (``_best_response_vertices``, ``_mutual_best_responses``). A
    degenerate game can have a component of equilibria of positive
    dimension; the pairs at its corners are reported. The utilities are the
    two best payoffs.
    """
    require_bimatrix(g)
    if max(g.shape) > MAX_SUPPORT_ACTIONS:
        raise SizeLimit(f"equilibrium enumeration limited to {MAX_SUPPORT_ACTIONS} actions per player")
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
            row_strategy=p,
            col_strategy=q,
            utilities=utilities,
            support=(_support(p), _support(q)),
        )
        for p, q, utilities in found
    ]
