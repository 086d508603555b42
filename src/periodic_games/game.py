"""Finite N-player strategic form games with exact rational payoffs.

Payoffs are stored as a dense tensor in row-major player order; every
quantity is a ``fractions.Fraction`` so all downstream computation is exact.
A Game is valid by construction: its constructor runs ``validate_game``, so
no algorithm re-checks one. Game objects are immutable and safe to share
between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import (
    BadDimension,
    BadLiteral,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    MissingProfile,
    ValidationError,
)
from .linalg import common_denominator, scaled

Profile = tuple[int, ...]
MixedProfile = tuple[tuple[Fraction, ...], ...]

RationalLike = Union[int, str, Fraction]

# CPython's default limit on the digits of an int-string conversion. A
# string literal may have at most this many mantissa digits plus exponent
# magnitude, so no literal makes a longer numerator or denominator.
MAX_LITERAL_DIGITS = 4300


def _too_long(token: str) -> bool:
    """Whether a string literal's mantissa digits plus exponent magnitude
    exceed ``MAX_LITERAL_DIGITS``, decided without computing a power of ten."""
    if len(token) <= MAX_LITERAL_DIGITS and "e" not in token and "E" not in token:
        return False
    mantissa, _, exponent = token.replace("E", "e").partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not magnitude.isdecimal():
        return digits > MAX_LITERAL_DIGITS  # no exponent, or one Fraction rejects
    if len(magnitude) > len(str(MAX_LITERAL_DIGITS)):
        return True
    return digits + int(magnitude) > MAX_LITERAL_DIGITS


def parse_fraction(token: RationalLike) -> Fraction:
    """The exact value of an int, a Fraction or a rational string ("-1/2", "0.25").

    ``bool`` and ``float`` are rejected: ``True`` is not a payoff, and binary
    floats would silently break exactness. A string whose mantissa digits
    plus exponent magnitude exceed ``MAX_LITERAL_DIGITS`` is rejected before
    any work. A bad literal raises BadLiteral, which is both a ParseError
    and a ValidationError.
    """
    if isinstance(token, (bool, float)):
        raise BadLiteral(f"payoff entries must be integers or strings, got {token!r}")
    if isinstance(token, str) and _too_long(token):
        raise BadLiteral(
            f"rational literal has more than {MAX_LITERAL_DIGITS} digits"
            " (mantissa digits plus exponent magnitude)"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BadLiteral(f"bad rational literal {token!r}: {exc}") from None


class OwnPayoffs(NamedTuple):
    """One player's own payoffs times the game's ``payoff_scale``."""

    rows: tuple[tuple[int, ...], ...]  # one per own action
    opponents: tuple[Profile, ...]  # column labels: opponent action indices


@dataclass(frozen=True)
class Game:
    """An N-player strategic form game.

    ``payoffs[k]`` is the length-N utility vector of the k-th action profile,
    profiles enumerated in row-major order over the players' action indices.
    """

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        validate_game(self)

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.actions)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(n) for n in self.shape))

    def profile_index(self, profile: Sequence[int]) -> int:
        index = 0
        for size, a in zip(self.shape, profile):
            if not 0 <= a < size:
                raise IndexOutOfRange(f"action index {a} out of range for size {size}")
            index = index * size + a
        return index

    def player_index(self, player: Union[int, str]) -> int:
        return label_index(self.players, player, "player", "")

    def action_index(self, player: Union[int, str], action: Union[int, str]) -> int:
        i = self.player_index(player)
        return label_index(self.actions[i], action, "action", f" for player {self.players[i]!r}")

    @functools.cached_property
    def payoff_scale(self) -> int:
        """The lcm of all payoff denominators; one scale for all players,
        whose payoffs CO-CO adds."""
        return common_denominator(v for vec in self.payoffs for v in vec)

    @functools.cached_property
    def own_payoffs(self) -> tuple[OwnPayoffs, ...]:
        """Per player i, i's own payoffs times ``payoff_scale``: one row per
        own action, one column per opponent profile (the opponents' action
        indices in player order, enumerated in row-major order)."""
        flat = [scaled(vec, self.payoff_scale) for vec in self.payoffs]
        views = []
        for i, size in enumerate(self.shape):
            after = math.prod(self.shape[i + 1:])
            rows = [[] for _ in range(size)]
            # Profile k has own action k // after % size, and the profiles
            # of one own action come in the row-major order of the others.
            for k, vec in enumerate(flat):
                rows[k // after % size].append(vec[i])
            opponents = itertools.product(*(range(n) for j, n in enumerate(self.shape) if j != i))
            views.append(OwnPayoffs(tuple(map(tuple, rows)), tuple(opponents)))
        return tuple(views)


def label_index(labels: Sequence[str], key: Union[int, str], what: str, where: str) -> int:
    """Index of a label in ``labels``, or ``key`` itself if it is an index in range.

    Only a ``str`` or an ``int`` (not a ``bool``) is a key. Anything else
    raises IndexOutOfRange naming ``what`` and ``where``.
    """
    if isinstance(key, str):
        try:
            return labels.index(key)
        except ValueError:
            raise IndexOutOfRange(f"unknown {what} {key!r}{where}") from None
    if not isinstance(key, int) or isinstance(key, bool):
        raise IndexOutOfRange(f"{what} key {key!r} is neither a label nor an index{where}")
    if not 0 <= key < len(labels):
        raise IndexOutOfRange(f"{what} index {key} out of range{where}")
    return key


def make_game(
    players: Sequence[str],
    actions: Sequence[Sequence[str]],
    payoff_table,
) -> Game:
    """Build a Game from a nested payoff table, the one reader of that format.

    ``payoff_table`` is nested one level per player (row-major), the innermost
    entries being length-N sequences of exact values. It is read one level
    per player, without recursion, the inverse of ``io.serialize_game``'s
    cut: a node of the wrong length is a MissingProfile, which is both a
    ParseError and a ValidationError, and a payoff vector of the wrong
    length a BadDimension.
    """
    players = tuple(players)
    actions = tuple(tuple(a) for a in actions)
    n = len(players)
    if len(actions) != n:
        raise BadDimension(f"{len(actions)} action lists for {n} players")
    shape = tuple(len(a) for a in actions)
    level = [payoff_table]  # the nodes at one depth, in row-major order
    for depth, size in enumerate(shape):
        for k, node in enumerate(level):
            if not isinstance(node, (list, tuple)) or len(node) != size:
                raise MissingProfile(
                    f"player {players[depth]!r} axis at profile prefix {_prefix(k, shape[:depth])}"
                    f" must have {size} entries"
                )
        level = [child for node in level for child in node]
    for k, vec in enumerate(level):
        if not isinstance(vec, (list, tuple)) or len(vec) != n:
            raise BadDimension(f"payoff vector at profile {_prefix(k, shape)} must have length {n}")
    payoffs = tuple(tuple(map(parse_fraction, vec)) for vec in level)
    return Game(players=players, actions=actions, payoffs=payoffs)


def _prefix(k: int, sizes: Sequence[int]) -> Profile:
    """The action indices of the k-th row-major profile over axes of ``sizes``."""
    out = []
    for size in reversed(sizes):
        k, a = divmod(k, size)
        out.append(a)
    return tuple(reversed(out))


def validate_game(g: Game) -> None:
    """Check all Game invariants; raises a ValidationError subclass on
    failure. ``Game`` calls it on construction."""
    n = g.num_players
    if n < 2:
        raise BadDimension(f"a game needs at least 2 players, got {n}")
    if len(g.actions) != n:
        raise BadDimension(f"{len(g.actions)} action lists for {n} players")
    if len(set(g.players)) != n:
        raise DuplicateLabel("player ids must be unique")
    for i, acts in enumerate(g.actions):
        if len(acts) < 1:
            raise BadDimension(f"player {g.players[i]!r} has an empty action set")
        if len(set(acts)) != len(acts):
            raise DuplicateLabel(f"duplicate action label for player {g.players[i]!r}")
    expected = 1
    for size in g.shape:
        expected *= size
    if len(g.payoffs) != expected:
        raise MissingProfile(f"payoff tensor has {len(g.payoffs)} profiles, expected {expected}")
    for k, vec in enumerate(g.payoffs):
        if len(vec) != n:
            raise BadDimension(f"payoff vector at flat index {k} has length {len(vec)}, expected {n}")
        if not all(isinstance(v, Fraction) for v in vec):
            raise ValidationError(f"payoff vector at flat index {k} has an entry that is not a Fraction")


def payoff(g: Game, profile: Sequence[int]) -> tuple[Fraction, ...]:
    """Utility vector of a pure action profile."""
    if len(profile) != g.num_players:
        raise IndexOutOfRange(f"profile length {len(profile)} != {g.num_players} players")
    return g.payoffs[g.profile_index(profile)]


def validate_mixture(g: Game, i: int, vec: Sequence[Fraction]) -> None:
    """Check that ``vec`` is an exact distribution over player i's actions.

    Entries must be Fractions or ints (not bools), so a float never enters
    a result; they must be nonnegative and sum to 1.
    """
    if len(vec) != g.shape[i]:
        raise DimensionMismatch(
            f"player {g.players[i]!r} mixture has {len(vec)} entries, expected {g.shape[i]}"
        )
    if not all(isinstance(p, (Fraction, int)) and not isinstance(p, bool) for p in vec):
        raise ValidationError(f"mixture of player {g.players[i]!r} has an entry that is not exact")
    if any(p < 0 for p in vec):
        raise ValidationError(f"negative probability in mixture of player {g.players[i]!r}")
    if sum(vec) != 1:
        raise ValidationError(f"mixture of player {g.players[i]!r} sums to {sum(vec)}, not 1")


def validate_mixed(g: Game, mixed: MixedProfile) -> None:
    if len(mixed) != g.num_players:
        raise DimensionMismatch(f"{len(mixed)} mixture vectors for {g.num_players} players")
    for i, vec in enumerate(mixed):
        validate_mixture(g, i, vec)


def expected_utility(g: Game, mixed: MixedProfile) -> tuple[Fraction, ...]:
    """Exact expected utility vector of an independent mixed profile."""
    validate_mixed(g, mixed)
    totals = [Fraction(0)] * g.num_players
    for profile, vec_u in zip(g.profiles(), g.payoffs):
        prob = Fraction(1)
        for vec, a in zip(mixed, profile):
            prob *= vec[a]
            if prob == 0:
                break
        if prob == 0:
            continue
        for i in range(g.num_players):
            totals[i] += prob * vec_u[i]
    return tuple(totals)
