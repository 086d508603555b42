"""Finite N-player strategic form games with exact rational payoffs.

A Game stores each player's payoffs as a row-major integer column over the
player's own scale, and forms ``payoffs``, the tensor of ``Fraction``s, on
first read unless ``Game(...)`` was given it. Every algorithm reads
``own_payoffs``, the columns cut into rows. ``Game(...)`` is the one checked
constructor, so a Game is valid by construction and no algorithm re-checks
one. Games are not changed once built and may be shared between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
from .linalg import common_scale, integer_column

Profile = tuple[int, ...]
MixedProfile = tuple[tuple[Fraction, ...], ...]

RationalLike = Union[int, str, Fraction]

# CPython's default limit on the digits of an int-string conversion. A
# string literal may have at most this many mantissa digits plus exponent
# magnitude, so no literal makes a longer numerator or denominator.
MAX_LITERAL_DIGITS = 4300

# The longest text ``parse_rational`` reads by ``int`` alone: below 640, the
# least int-string conversion limit an interpreter can be set to, so that
# ``int`` never meets ``sys.get_int_max_str_digits()`` on this path.
PLAIN_LENGTH = 600


def _too_long(token: str) -> bool:
    """Whether a string literal's mantissa digits plus exponent magnitude
    exceed ``MAX_LITERAL_DIGITS``, decided without computing a power of ten."""
    if len(token) <= MAX_LITERAL_DIGITS and "e" not in token and "E" not in token:
        return False
    mantissa, _, exponent = token.replace("E", "e").partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-").lstrip("0")
    if not magnitude.isdecimal():
        return digits > MAX_LITERAL_DIGITS  # no exponent, or one Fraction rejects
    if len(magnitude) > len(str(MAX_LITERAL_DIGITS)):
        return True
    return digits + int(magnitude) > MAX_LITERAL_DIGITS


def parse_rational(token: RationalLike) -> tuple[int, int]:
    """The exact value of an int, a Fraction or a rational string ("-1/2",
    "0.25") as a reduced ``(numerator, denominator)`` pair of ints, the
    denominator positive: the one rational-literal parser.

    A plain ASCII text, ``-?digits`` or ``-?digits/digits`` with a nonzero
    denominator, of at most ``PLAIN_LENGTH`` characters is read by ``int``
    and one gcd, with no ``Fraction``. Every other token goes through
    ``Fraction``: ``bool`` and ``float`` are rejected (``True`` is not a
    payoff, and binary floats would silently break exactness), and a string
    with an underscore (which ``Fraction`` reads from Python 3.11 on), or
    whose mantissa digits plus exponent magnitude exceed
    ``MAX_LITERAL_DIGITS``, is rejected before any work. A bad literal
    raises BadLiteral, which is both a ParseError and a ValidationError.
    """
    if type(token) is str and len(token) <= PLAIN_LENGTH and token.isascii():
        num, slash, den = token.partition("/")
        # On ASCII text, isdigit() holds for 0-9 only; "", "+" and "--" fail it.
        if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
            n, d = int(num), int(den) if slash else 1
            if d:
                g = math.gcd(n, d)
                return n // g, d // g
    if isinstance(token, (bool, float)):
        raise BadLiteral(f"payoff entries must be integers or strings, got {token!r}")
    if isinstance(token, str) and "_" in token:
        raise BadLiteral(f"bad rational literal {token!r}: underscores are not part of a literal")
    if isinstance(token, str) and _too_long(token):
        raise BadLiteral(
            f"rational literal has more than {MAX_LITERAL_DIGITS} digits"
            " (mantissa digits plus exponent magnitude)"
        )
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BadLiteral(f"bad rational literal {token!r}: {exc}") from None
    return value.numerator, value.denominator


def parse_fraction(token: RationalLike) -> Fraction:
    """``parse_rational``'s value as a ``Fraction``, with its errors."""
    return Fraction(*parse_rational(token))


class OwnPayoffs(NamedTuple):
    """One player's own payoffs, as integers over the player's own scale."""

    rows: tuple[tuple[int, ...], ...]  # one per own action
    opponents: tuple[Profile, ...]  # column labels: opponent action indices
    scale: int  # the lcm of the player's own payoff denominators


@dataclass(init=False, eq=False)
class Game:
    """An N-player strategic form game.

    ``payoffs[k]`` is the length-N utility vector of the k-th action profile,
    profiles enumerated in row-major order over the players' action indices.
    A game stores ``columns[i]``, player i's row-major payoffs times
    ``scales[i]``, the lcm of their denominators; ``==`` and ``hash`` read
    that canonical pair. Nothing guards the attributes: do not assign them.
    """

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __init__(self, players, actions, payoffs, _integers=None) -> None:
        # _from_integers passes payoffs None and its checked (columns, scales).
        self.players, self.actions, self._payoffs = players, actions, payoffs
        self.columns, self.scales = _integers or (None, None)
        validate_game(self)
        if _integers is None:  # the Fraction vectors, kept as given
            ints, self.scales = zip(*map(integer_column, zip(*payoffs)))
            self.columns = tuple(map(tuple, ints))

    @classmethod
    def _from_integers(cls, players, actions, columns, scales) -> Game:
        """The game of one row-major int payoff column per player, player i's
        over the positive int ``scales[i]`` (else a ValidationError), built
        with no ``Fraction``: each scale is reduced by one gcd with its column."""
        players, scales, columns = tuple(players), tuple(scales), tuple(map(tuple, columns))
        ragged = len(set(map(len, columns))) > 1 or {len(columns), len(scales)} != {len(players)}
        if ragged or not set(map(type, itertools.chain(*columns, scales))) <= {int} or min(scales, default=1) < 1:
            raise ValidationError("integer payoffs need per player an int column, all of one length, and a positive int scale")
        divisors = [math.gcd(s, *column) for column, s in zip(columns, scales)]
        columns = tuple(c if d == 1 else tuple(v // d for v in c) for c, d in zip(columns, divisors))
        return cls(players, tuple(map(tuple, actions)), None, (columns, tuple(map(operator.floordiv, scales, divisors))))

    @property
    def payoffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vectors given to ``Game(...)``, else formed from the columns
        on first read, one ``Fraction`` per distinct (value, scale), and kept."""
        if self._payoffs is None:
            values: dict[int, dict[int, Fraction]] = {s: {} for s in self.scales}
            for column, s in zip(self.columns, self.scales):
                values[s].update({v: Fraction(v, s) for v in set(column).difference(values[s])})
            self._payoffs = tuple(zip(*(map(values[s].__getitem__, c) for c, s in zip(self.columns, self.scales))))
        return self._payoffs

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.players, self.actions, self.columns, self.scales) == (
            other.players, other.actions, other.columns, other.scales)

    def __hash__(self) -> int:
        return hash((self.players, self.actions, self.columns, self.scales))

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
    def own_payoffs(self) -> tuple[OwnPayoffs, ...]:
        """Per player i, i's own payoffs times the lcm of their denominators:
        one row per own action, one column per opponent profile (the
        opponents' action indices in player order, enumerated in row-major
        order)."""
        shape, views = self.shape, []
        for i, (size, ints, scale) in enumerate(zip(shape, self.columns, self.scales)):
            # Runs as long as the later players' profile count; run r has own action r % size.
            runs = list(zip(*[iter(ints)] * math.prod(shape[i + 1:])))
            rows = tuple(tuple(itertools.chain.from_iterable(runs[a::size])) for a in range(size))
            opponents = itertools.product(*(range(n) for j, n in enumerate(shape) if j != i))
            views.append(OwnPayoffs(rows, tuple(opponents), scale))
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

    Each distinct ``str`` token is parsed once by ``parse_rational``, and
    every other token on its own, in row-major order so the first bad
    literal raises. Each player's column is written over the lcm of that
    player's denominators and the game built by ``Game._from_integers``, so
    a plain ``k`` or ``k/d`` text forms no ``Fraction``.
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
    tokens = list(itertools.chain.from_iterable(level))
    # Only str tokens share a parse (True, 1 and 1.0 hash equal, and a list
    # does not hash); any other token is keyed by its index, which no str is.
    keys = tokens if set(map(type, tokens)) == {str} else [t if type(t) is str else k for k, t in enumerate(tokens)]
    texts = dict(zip(keys, tokens))  # in row-major order of first use
    pairs = dict(zip(texts, map(parse_rational, texts.values())))
    columns, scales = [], []
    for i in range(n):
        own = keys[i::n]  # player i's entries, row-major
        distinct = set(own)
        scale = common_scale(pairs[k][1] for k in distinct)
        values = {k: pairs[k][0] * (scale // pairs[k][1]) for k in distinct}
        columns.append(tuple(map(values.__getitem__, own)))
        scales.append(scale)
    return Game._from_integers(players, actions, columns, scales)


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
    if not all(isinstance(p, str) for p in g.players):
        raise ValidationError("player labels must be strings")
    if len(set(g.players)) != n:
        raise DuplicateLabel("player ids must be unique")
    for i, acts in enumerate(g.actions):
        if len(acts) < 1:
            raise BadDimension(f"player {g.players[i]!r} has an empty action set")
        if not all(isinstance(a, str) for a in acts):
            raise ValidationError(f"action labels of player {g.players[i]!r} must be strings")
        if len(set(acts)) != len(acts):
            raise DuplicateLabel(f"duplicate action label for player {g.players[i]!r}")
    expected, vectors = math.prod(g.shape), g._payoffs
    count = len(g.columns[0] if vectors is None else vectors)  # columns: as _from_integers checked them
    if count != expected:
        raise MissingProfile(f"payoff tensor has {count} profiles, expected {expected}")
    if vectors is not None and set(map(len, vectors)) - {n}:
        k = next(k for k, vec in enumerate(vectors) if len(vec) != n)
        raise BadDimension(f"payoff vector at flat index {k} has length {len(vectors[k])}, expected {n}")
    if vectors is None or set(map(type, itertools.chain.from_iterable(vectors))) <= {Fraction}:  # at C speed
        return
    for k, vec in enumerate(vectors):
        if not all(isinstance(v, Fraction) for v in vec):
            raise ValidationError(f"payoff vector at flat index {k} has an entry that is not a Fraction")


def payoff(g: Game, profile: Sequence[int]) -> tuple[Fraction, ...]:
    """Utility vector of a pure action profile."""
    if len(profile) != g.num_players:
        raise IndexOutOfRange(f"profile length {len(profile)} != {g.num_players} players")
    k = g.profile_index(profile)
    return tuple(Fraction(column[k], scale) for column, scale in zip(g.columns, g.scales))


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
