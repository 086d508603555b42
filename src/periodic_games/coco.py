"""Cooperative-competitive decomposition and solution of bimatrix games.

A bimatrix game splits into a common-payoff half-sum game and a zero-sum
half-difference game. The solution combines the maximal joint payoff with
the zero-sum value and balances the chosen profile with a side payment;
the only sum of two players' payoffs, over the lcm of their own scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError
from .game import Game, payoff
from .linalg import common_scale
from .lp import zero_sum_value
from .mixed import require_bimatrix

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Decomposition:
    cooperative: Matrix  # half-sum, shared by both players
    competitive: Matrix  # half-difference, zero-sum


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
    """Entrywise half-sum / half-difference split of the two payoff matrices."""
    a, b, scale = _bimatrix(g)
    half = 2 * scale
    cooperative = tuple(
        tuple(Fraction(x + y, half) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    competitive = tuple(
        tuple(Fraction(x - y, half) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    return Decomposition(cooperative=cooperative, competitive=competitive)


def max_combined_payoff(g: Game) -> tuple[Fraction, tuple[int, int], tuple[tuple[int, int], ...]]:
    """Maximum of the joint payoff over pure profiles.

    Returns (value, lexicographically first argmax, all tied argmax profiles).
    """
    a, b, scale = _bimatrix(g)
    combined = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    best = max(max(row) for row in combined)
    tied = tuple((r, c) for r, row in enumerate(combined) for c, v in enumerate(row) if v == best)
    return Fraction(best, scale), tied[0], tied


def coco_solution(g: Game) -> CocoSolution:
    """Full cooperative-competitive solution of a bimatrix game."""
    split = decompose(g)
    vsharp, profile, tied = max_combined_payoff(g)
    vs, row_strategy, col_strategy = zero_sum_value(split.competitive)
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
