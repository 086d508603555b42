"""Incomplete-information games with a common prior.

A Bayesian game stores one payoff Game per state plus a prior over
(state, type profile). The module derives interim beliefs and builds the
complete-information companions: the ex-ante game over type-contingent
strategies and the interim game over player-type pairs. The interim game
with correlated conditioning on joint types equals one of the two.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import BadDimension, DuplicateLabel, SizeLimit, ValidationError, ZeroProbabilityType
from .game import Game, label_index
from .linalg import common_denominator, scaled

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
    of the positive prior probabilities and ``du`` the lcm of the games'
    ``payoff_scale``s, so a positive prior entry has the integer weight
    ``w = prob * dp`` and payoff vectors ``U = u * du``. A companion profile
    is one action per pair, and the pairs' product runs through them in
    row-major order. ``sums[r][k]`` sums ``w * U_i`` over the entries whose
    pair q = (i, t_i) has ``rows[q] == r``, each at the payoff vector its
    type profile's pairs choose at profile k; ``mass[q]`` sums the ``w`` of
    pair q's entries. The entries of one type profile are summed once per
    base payoff vector. A sum of ``prob * u`` is then an integer sum over
    ``dp * du``: one Fraction per result instead of a Fraction product per
    term.
    """
    ids = _player_type_ids(bg)
    position = {node: q for q, node in enumerate(ids)}
    shape = bg.games[0].shape
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    positive = [(key, prob) for key, prob in bg.prior.items() if prob > 0]
    probs = [prob for _, prob in positive]
    dp = common_denominator(probs)
    # The lcm of the games' cached scales: 1/scale has denominator scale.
    du = common_denominator(Fraction(1, g.payoff_scale) for g in bg.games)
    payoffs = [[scaled(vec, du) for vec in g.payoffs] for g in bg.games]
    by_types: dict[TypeProfile, list[tuple[int, int]]] = {}
    for ((theta, tp), _), w in zip(positive, scaled(probs, dp)):
        by_types.setdefault(tp, []).append((w, theta))
    base = range(len(bg.games[0].payoffs))
    sums = [[0] * math.prod(shape[i] for i, _ in ids) for _ in range(max(rows) + 1)]
    mass = [0] * len(ids)
    # A one-action pair multiplies the companion profiles by one.
    moving = [(q, i) for q, (i, _) in enumerate(ids) if shape[i] > 1]
    for tp, entries in by_types.items():
        pairs = [position[node] for node in enumerate(tp)]
        # Action a of pair (i, t_i) moves the flat index of the payoff
        # vector by a times i's row-major stride; other pairs do not move it.
        moves = {q: strides[i] for i, q in enumerate(pairs)}
        index = [0]
        for q, i in moving:
            stride = moves.get(q, 0)
            index = [k + a * stride for k in index for a in range(shape[i])]
        for i, q in enumerate(pairs):
            column = [sum(w * payoffs[theta][k][i] for w, theta in entries) for k in base]
            r = rows[q]
            sums[r] = list(map(operator.add, sums[r], map(column.__getitem__, index)))
            mass[q] += sum(w for w, _ in entries)
    return sums, mass, dp, du


def _strategy_label(bg: BayesianGame, player: int, choice: TypeProfile) -> str:
    return "".join(bg.actions[player][a] for a in choice)


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
    the concatenation of the chosen action labels in type order. Payoffs are
    prior expectations, summed exactly in integers (prior and payoffs scaled
    by the lcm of their denominators) and divided once per payoff entry.
    """
    _check_profile_count(bg, "ex-ante", bg.num_players)
    n = bg.num_players
    strategy_sets = [
        list(itertools.product(range(len(bg.actions[i])), repeat=len(bg.types[i])))
        for i in range(n)
    ]
    labels = tuple(
        tuple(_strategy_label(bg, i, choice) for choice in strategy_sets[i]) for i in range(n)
    )
    # A strategy profile is a companion profile of ``_integer_expectation``,
    # and each prior entry adds to one of a player's pairs: one row a player.
    sums, _, dp, du = _integer_expectation(bg, [i for i, _ in _player_type_ids(bg)])
    columns = [[Fraction(total, dp * du) for total in totals] for totals in sums]
    return Game(players=bg.players, actions=labels, payoffs=tuple(zip(*columns)))


def _player_type_ids(bg: BayesianGame) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, t) for i in range(bg.num_players) for t in range(len(bg.types[i]))
    )


def _player_type_labels(bg: BayesianGame) -> tuple[str, ...]:
    flat_labels = [label for labels in bg.types for label in labels]
    unique = len(set(flat_labels)) == len(flat_labels)
    out = []
    for i, t in _player_type_ids(bg):
        label = bg.types[i][t]
        out.append(label if unique else f"{bg.players[i]}.{label}")
    return tuple(out)


def interim_game(bg: BayesianGame) -> Game:
    """Complete-information game whose players are all (player, type) pairs.

    Each pair chooses from the original player's action set; its payoff is
    the type-conditional expectation of the original utility, with opponent
    actions taken from the realized opponent types' choices. A pair's
    expectation is an integer sum over its prior entries (scaled as in
    ``ex_ante_game``) divided once by ``du`` times the pair's integer mass.
    """
    ids = _player_type_ids(bg)
    _check_profile_count(bg, "interim", len(ids))
    sums, mass, _, du = _integer_expectation(bg, range(len(ids)))
    if 0 in mass:
        raise _zero_probability_type(bg, *ids[mass.index(0)])
    columns = [[Fraction(v, du * m) for v in totals] for totals, m in zip(sums, mass)]
    actions = tuple(bg.actions[i] for i, _ in ids)
    return Game(players=_player_type_labels(bg), actions=actions, payoffs=tuple(zip(*columns)))


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
