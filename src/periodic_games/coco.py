"""Cooperative-competitive decomposition and solution of bimatrix games.

A bimatrix game splits into a common-payoff half-sum game and a zero-sum
half-difference game. The solution combines the maximal joint payoff with
the zero-sum value and balances the chosen profile with a side payment;
the only sum of two players' payoffs, over the lcm of their own scales.
The split stays in integers, over twice that lcm, from the payoff views to
the zero-sum LP; ``Fraction``s are formed only for the values reported.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError
from .game import Game, payoff
from .linalg import common_scale
from .lp import zero_sum_value
from .mixed import require_bimatrix

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The half-sum and half-difference games as int matrices, rows by
    columns, over one positive ``scale``: ``cooperative[r][c]`` is
    ``sums[r][c] / scale`` and ``competitive[r][c]`` is
    ``differences[r][c] / scale``. ``==`` and ``hash`` read those two
    ``Fraction`` matrices, so decompositions over different scales compare
    by value."""

    sums: IntMatrix  # a + b
    differences: IntMatrix  # a - b
    scale: int

    @functools.cached_property
    def cooperative(self) -> Matrix:
        """Half-sum, shared by both players; formed on first read."""
        return _fractions(self.sums, self.scale)

    @functools.cached_property
    def competitive(self) -> Matrix:
        """Half-difference, zero-sum; formed on first read."""
        return _fractions(self.differences, self.scale)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cooperative, self.competitive) == (other.cooperative, other.competitive)

    def __hash__(self) -> int:
        return hash((self.cooperative, self.competitive))


def _fractions(rows: IntMatrix, scale: int) -> Matrix:
    return tuple(tuple(Fraction(v, scale) for v in row) for row in rows)


@dataclass(frozen=True)
class CocoSolution:
    vsharp: Fraction
    vs: Fraction
    profile: tuple[int, int]
    tied_profiles: tuple[tuple[int, int], ...]
    side_payment: Fraction  # paid by the column player to the row player
    final_payoffs: tuple[Fraction, Fraction]
    zero_sum_strategies: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    decomposition: Decomposition


def _bimatrix(g: Game) -> tuple[list, list, int]:
    """The row and column players' payoff matrices, rows by columns, in
    integers over the lcm of the two players' scales, and that lcm."""
    require_bimatrix(g)
    scale = common_scale(own.scale for own in g.own_payoffs)
    a, b = ([[x * (scale // own.scale) for x in row] for row in own.rows] for own in g.own_payoffs)
    return a, list(zip(*b)), scale


def decompose(g: Game) -> Decomposition:
    """Entrywise half-sum / half-difference split of the two payoff
    matrices, in integers over twice the lcm of the players' scales."""
    a, b, scale = _bimatrix(g)
    return Decomposition(
        sums=tuple(tuple(map(operator.add, ra, rb)) for ra, rb in zip(a, b)),
        differences=tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(a, b)),
        scale=2 * scale,
    )


def _joint_maximum(split: Decomposition) -> tuple[Fraction, tuple[int, int], tuple[tuple[int, int], ...]]:
    """``max_combined_payoff`` read off a decomposition: the joint payoff
    is twice the cooperative one."""
    best = max(map(max, split.sums))
    tied = tuple((r, c) for r, row in enumerate(split.sums) for c, v in enumerate(row) if v == best)
    return Fraction(2 * best, split.scale), tied[0], tied


def max_combined_payoff(g: Game) -> tuple[Fraction, tuple[int, int], tuple[tuple[int, int], ...]]:
    """Maximum of the joint payoff over pure profiles.

    Returns (value, lexicographically first argmax, all tied argmax profiles).
    """
    return _joint_maximum(decompose(g))


def coco_solution(g: Game) -> CocoSolution:
    """Full cooperative-competitive solution of a bimatrix game."""
    split = decompose(g)
    vsharp, profile, tied = _joint_maximum(split)
    vs, row_strategy, col_strategy = zero_sum_value(split.differences, scale=split.scale)
    final = (vsharp / 2 + vs, vsharp / 2 - vs)
    row_payoff, col_payoff = payoff(g, profile)
    side_payment = final[0] - row_payoff
    # Defining identities; cheap and worth re-checking on every call.
    if sum(final) != vsharp:
        raise CertificateError(f"final payoffs {final} do not add up to the joint maximum {vsharp}")
    if col_payoff - side_payment != final[1]:
        raise CertificateError(
            f"side payment {side_payment} at profile {profile} does not yield payoff {final[1]}"
        )
    return CocoSolution(
        vsharp=vsharp,
        vs=vs,
        profile=profile,
        tied_profiles=tied,
        side_payment=side_payment,
        final_payoffs=final,
        zero_sum_strategies=(row_strategy, col_strategy),
        decomposition=split,
    )
