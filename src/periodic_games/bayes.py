"""Incomplete-information games with a common prior.

A Bayesian game stores one payoff Game per state plus a prior over
(state, type profile). The module derives interim beliefs and builds the
complete-information companions: the ex-ante game over type-contingent
strategies and the interim game over player-type pairs. The interim game
with correlated conditioning on joint types equals one of the two. Both
are built from integer sums over the games' integer payoff views.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import BadDimension, DuplicateLabel, SizeLimit, ValidationError, ZeroProbabilityType
from .game import Game, label_index
from .linalg import common_denominator, integer_column

TypeProfile = tuple[int, ...]
PriorKey = tuple[int, TypeProfile]  # (theta index, type profile)

DEFAULT_MAX_PROFILES = 100_000


@dataclass(frozen=True)
class BayesianGame:
    """A Bayesian game, valid by construction: ``games[k]`` is the payoff
    game of parameter value ``thetas[k]``, and all of them share the
    players and actions read off ``games[0]``."""

    thetas: tuple[str, ...]
    types: tuple[tuple[str, ...], ...]
    prior: Mapping[PriorKey, Fraction]
    games: tuple[Game, ...]

    def __post_init__(self) -> None:
        validate_bayesian_game(self)

    @property
    def players(self) -> tuple[str, ...]:
        return self.games[0].players

    @property
    def actions(self) -> tuple[tuple[str, ...], ...]:
        return self.games[0].actions

    @property
    def num_players(self) -> int:
        return len(self.players)

    def player_index(self, player: Union[int, str]) -> int:
        return label_index(self.players, player, "player", "")

    def type_index(self, player: int, t: Union[int, str]) -> int:
        return label_index(self.types[player], t, "type", f" for player {self.players[player]!r}")


def validate_bayesian_game(bg: BayesianGame) -> None:
    """Check the BayesianGame invariants the games do not already hold;
    raises a ValidationError subclass on failure. ``BayesianGame`` calls it
    on construction."""
    if not bg.thetas:
        raise BadDimension("at least one parameter value is required")
    if not all(isinstance(theta, str) for theta in bg.thetas):
        raise ValidationError("parameter labels must be strings")
    if len(set(bg.thetas)) != len(bg.thetas):
        raise DuplicateLabel("duplicate parameter label")
    if len(bg.games) != len(bg.thetas) or not all(isinstance(g, Game) for g in bg.games):
        raise ValidationError("a Bayesian game needs one Game per parameter value")
    if any((g.players, g.actions) != (bg.players, bg.actions) for g in bg.games):
        raise ValidationError("the games of all parameter values must have the same players and actions")
    n = bg.num_players
    if len(bg.types) != n:
        raise BadDimension("types must be given for every player")
    for player, labels in zip(bg.players, bg.types):
        if not all(isinstance(t, str) for t in labels):
            raise ValidationError(f"type labels of player {player!r} must be strings")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate type label for player {player!r}")
    total = Fraction(0)
    for (theta, type_profile), prob in bg.prior.items():
        if not 0 <= theta < len(bg.thetas):
            raise ValidationError(f"prior references unknown parameter index {theta}")
        if len(type_profile) != n:
            raise ValidationError(f"prior type profile {type_profile} has wrong length")
        for i, t in enumerate(type_profile):
            if not 0 <= t < len(bg.types[i]):
                raise ValidationError(f"prior references unknown type index {t} of player {i}")
        if not isinstance(prob, Fraction):
            raise ValidationError(f"prior probability of {(theta, type_profile)} is not a Fraction")
        if prob < 0:
            raise ValidationError("negative prior probability")
        total += prob
    if total != 1:
        raise ValidationError(f"prior sums to {total}, not 1")


def _zero_probability_type(bg: BayesianGame, i: int, t: int) -> ZeroProbabilityType:
    return ZeroProbabilityType(
        f"type {bg.types[i][t]!r} of player {bg.players[i]!r} has zero prior probability"
    )


@dataclass(frozen=True)
class InterimBelief:
    """Prior conditioned on one player's type; keys are (theta, opponent types)."""

    player: int
    type: int
    distribution: dict[tuple[int, TypeProfile], Fraction]


def conditional_belief(bg: BayesianGame, player: Union[int, str], t: Union[int, str]) -> InterimBelief:
    i = bg.player_index(player)
    ti = bg.type_index(i, t)
    marginal = sum((prob for (_, tp), prob in bg.prior.items() if tp[i] == ti), Fraction(0))
    if marginal == 0:
        raise _zero_probability_type(bg, i, ti)
    dist: dict[tuple[int, TypeProfile], Fraction] = {}
    for (theta, tp), prob in bg.prior.items():
        if tp[i] != ti or prob == 0:
            continue
        opp = tuple(tp[j] for j in range(bg.num_players) if j != i)
        dist[(theta, opp)] = dist.get((theta, opp), Fraction(0)) + prob / marginal
    return InterimBelief(player=i, type=ti, distribution=dist)


def first_order_belief(
    bg: BayesianGame, player: Union[int, str], t: Union[int, str]
) -> dict[int, Fraction]:
    """Marginal of the interim belief onto the parameter set."""
    belief = conditional_belief(bg, player, t)
    out: dict[int, Fraction] = {}
    for (theta, _), prob in belief.distribution.items():
        out[theta] = out.get(theta, Fraction(0)) + prob
    return out


def second_order_belief(
    bg: BayesianGame, player: Union[int, str], t: Union[int, str]
) -> dict[tuple[int, tuple], Fraction]:
    """Interim mass aggregated over opponent first-order-belief classes.

    Keys are (theta, class key) where the class key is the tuple, one entry
    per opponent, of that opponent type's first-order belief rendered as a
    sorted (theta, probability) tuple.
    """
    i = bg.player_index(player)
    belief = conditional_belief(bg, i, t)
    others = [j for j in range(bg.num_players) if j != i]

    def belief_key(j: int, tj: int) -> tuple:
        fob = first_order_belief(bg, j, tj)
        return tuple(sorted(fob.items()))

    out: dict[tuple[int, tuple], Fraction] = {}
    for (theta, opp), prob in belief.distribution.items():
        key = (theta, tuple(belief_key(j, tj) for j, tj in zip(others, opp)))
        out[key] = out.get(key, Fraction(0)) + prob
    return out


def _integer_expectation(bg: BayesianGame, rows: Sequence[int]):
    """The prior-weighted payoff sums of a Bayesian game, in integers, per
    companion profile, added into the row ``rows[q]`` of each (player, type)
    pair q of ``_player_type_ids``.

    Returns ``(sums, mass, dp, du)``. ``dp`` is the lcm of the denominators
    of the positive prior probabilities and ``du`` the lcm of the players'
    own scales over all games (``Game.own_payoffs``), each player's payoff
    column read in integers over its own scale. So a positive prior entry
    has the integer weight ``w = prob * dp`` and payoffs ``U_i = u_i * du``
    (the column times a factor folded into the weight). A companion
    profile is one action per pair, and the pairs' product runs through
    them in row-major order. ``sums[r][k]`` sums ``w * U_i`` over the
    entries whose pair q = (i, t_i) has ``rows[q] == r``, each at the payoff
    vector its type profile's pairs choose at profile k; ``mass[q]`` sums
    the ``w`` of pair q's entries. The entries of one type profile are
    summed once per base payoff vector, and each player's column of those
    sums is laid over the companion profiles by ``_spread``. A sum of
    ``prob * u`` is then an integer sum over ``dp * du``, with no Fraction
    product per term.
    """
    ids = _player_type_ids(bg)
    position = {node: q for q, node in enumerate(ids)}
    shape = bg.games[0].shape
    positive = [(key, prob) for key, prob in bg.prior.items() if prob > 0]
    weights, dp = integer_column([prob for _, prob in positive])
    columns = [list(map(integer_column, zip(*g.payoffs))) for g in bg.games]
    du = common_denominator(Fraction(1, s) for game in columns for _, s in game)  # 1/s has denominator s
    by_types: dict[TypeProfile, list[tuple[int, int]]] = {}
    for ((theta, tp), _), w in zip(positive, weights):
        by_types.setdefault(tp, []).append((w, theta))
    # counts[q]: the profile count of the pairs before pair q.
    counts = list(itertools.accumulate((shape[i] for i, _ in ids), operator.mul, initial=1))
    sums = [[0] * counts[-1] for _ in range(max(rows) + 1)]
    mass = [0] * len(ids)
    for tp, entries in by_types.items():
        pairs = [position[node] for node in enumerate(tp)]
        # The profile counts of the other pairs: those before the first of
        # the type profile's pairs, and those after each one up to the next.
        gaps = [counts[end] // counts[q + 1] for q, end in zip(pairs, [*pairs[1:], len(ids)])]
        for i, q in enumerate(pairs):
            # One weighted column per entry, summed position by position in
            # one flat pass, however many entries share the type profile.
            terms = [map((w * (du // columns[theta][i][1])).__mul__, columns[theta][i][0]) for w, theta in entries]
            column = list(map(sum, zip(*terms)))
            r = rows[q]
            sums[r] = list(map(operator.add, sums[r], _spread(column, shape, gaps, counts[pairs[0]])))
            mass[q] += sum(w for w, _ in entries)
    return sums, mass, dp, du


def _spread(values: list[int], shape: Sequence[int], gaps: Sequence[int], before: int) -> list[int]:
    """``values``, row-major over one action per player, laid over every
    companion profile, row-major over the pairs. Each player's pair stands
    among other pairs: ``before`` profiles of theirs come before the first,
    and ``gaps[i]`` between player i's pair and the next one (or the end).
    Innermost first, each run of ``values`` that one prefix of actions fixes
    is repeated once per profile of the other pairs after it, at C level."""
    run = 1
    for size, gap in zip(reversed(shape), reversed(gaps)):
        if gap > 1:
            values = list(itertools.chain.from_iterable(map(operator.mul, zip(*[iter(values)] * run), itertools.repeat(gap))))
        run *= size * gap
    return values * before


def _strategy_labels(bg: BayesianGame, player: int, choices: Sequence[TypeProfile]) -> tuple[str, ...]:
    """The labels of one player's strategies, as ``ex_ante_game`` describes
    them; distinct label lists have distinct JSON texts."""
    chosen = [[bg.actions[player][a] for a in choice] for choice in choices]
    joined = ["".join(labels) for labels in chosen]
    if len(set(joined)) == len(joined):
        return tuple(joined)
    return tuple(json.dumps(labels, separators=(",", ":")) for labels in chosen)


def _check_profile_count(bg: BayesianGame, what: str, players: int) -> None:
    """SizeLimit when a companion game of ``players`` players, one action per
    (player, type) pair, would have more than ``DEFAULT_MAX_PROFILES``
    profiles or more than twice that many payoff entries (profiles times
    players); checked before anything of that size is built, stopping at
    the first pair past the profile limit."""
    max_profiles = DEFAULT_MAX_PROFILES
    total = 1
    for actions, types in zip(bg.actions, bg.types):
        for _ in types:
            total *= len(actions)
            if total > max_profiles:
                raise SizeLimit(f"{what} game would have more than {max_profiles} profiles")
    if total * players > 2 * max_profiles:
        raise SizeLimit(
            f"{what} game would have more than {2 * max_profiles} payoff entries"
            f" ({total} profiles of {players} players)"
        )


def ex_ante_game(bg: BayesianGame) -> Game:
    """Complete-information game over type-contingent strategies.

    A strategy assigns an action to each of the player's types; its label is
    the concatenation of the chosen action labels in type order, or, for a
    player two of whose concatenations coincide, the compact JSON text of
    the list of those labels (``["a","aa"]``). Payoffs are prior
    expectations, summed exactly in integers (prior and payoffs scaled by
    the lcm of their denominators); the game is built from those sums over
    their one scale, ``dp * du``.
    """
    _check_profile_count(bg, "ex-ante", bg.num_players)
    n = bg.num_players
    strategy_sets = [
        list(itertools.product(range(len(bg.actions[i])), repeat=len(bg.types[i])))
        for i in range(n)
    ]
    labels = tuple(_strategy_labels(bg, i, strategy_sets[i]) for i in range(n))
    # A strategy profile is a companion profile of ``_integer_expectation``,
    # and each prior entry adds to one of a player's pairs: one row a player.
    sums, _, dp, du = _integer_expectation(bg, [i for i, _ in _player_type_ids(bg)])
    return Game._from_integers(bg.players, labels, zip(*sums), (dp * du,) * n)


def _player_type_ids(bg: BayesianGame) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, t) for i in range(bg.num_players) for t in range(len(bg.types[i]))
    )


def _player_type_labels(bg: BayesianGame) -> tuple[str, ...]:
    """The labels of the interim game's players, one per (player, type)
    pair: the type labels when they are distinct, else ``player.type``, or,
    when two of those coincide (player ``A`` with type ``B.b`` and player
    ``A.B`` with type ``b``), the compact JSON text of each pair
    (``["A","B.b"]``), as ``_strategy_labels`` names colliding strategies."""
    pairs = [(bg.players[i], bg.types[i][t]) for i, t in _player_type_ids(bg)]
    for labels in ([t for _, t in pairs], [f"{p}.{t}" for p, t in pairs]):
        if len(set(labels)) == len(labels):
            return tuple(labels)
    return tuple(json.dumps(pair, separators=(",", ":")) for pair in pairs)


def interim_game(bg: BayesianGame) -> Game:
    """Complete-information game whose players are all (player, type) pairs.

    Each pair chooses from the original player's action set; its payoff is
    the type-conditional expectation of the original utility, with opponent
    actions taken from the realized opponent types' choices. A pair's
    expectation is an integer sum over its prior entries (scaled as in
    ``ex_ante_game``) over ``du`` times the pair's integer mass, and the
    game is built from those sums, each pair's over its own scale: the lcm
    of many distinct masses can dwarf every payoff. The pairs are named as
    ``_player_type_labels`` says.
    """
    ids = _player_type_ids(bg)
    _check_profile_count(bg, "interim", len(ids))
    sums, mass, _, du = _integer_expectation(bg, range(len(ids)))
    if 0 in mass:
        raise _zero_probability_type(bg, *ids[mass.index(0)])
    actions = tuple(bg.actions[i] for i, _ in ids)
    return Game._from_integers(_player_type_labels(bg), actions, zip(*sums), [du * m for m in mass])


def interim_correlated_game(bg: BayesianGame) -> Game:
    """Interim representation conditioning on joint type profiles.

    Under a common prior, the interim mass of the opponents' types times the
    parameter's conditional given the full type profile is the interim
    belief itself, so with several types this is ``interim_game``. With a
    single type per player it is the expected game over the parameter on
    the original players, which is ``ex_ante_game``.
    """
    if all(len(t) == 1 for t in bg.types):
        return ex_ante_game(bg)
    return interim_game(bg)
