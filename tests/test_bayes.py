import dataclasses
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from periodic_games import (
    BayesianGame,
    Game,
    conditional_belief,
    ex_ante_game,
    first_order_belief,
    interim_correlated_game,
    interim_game,
    second_order_belief,
    validate_bayesian_game,
)
from periodic_games import bayes
from periodic_games.errors import (
    BadDimension,
    DuplicateLabel,
    IndexOutOfRange,
    SizeLimit,
    ValidationError,
    ZeroProbabilityType,
)
from periodic_games.io import parse_bayes

from conftest import FIXTURES, colliding_strategies_bayes, many_types_bayes

F = Fraction


def test_validate_rejects_bad_prior(two_type_bayes):
    bg = two_type_bayes
    with pytest.raises(ValidationError):
        BayesianGame(thetas=bg.thetas, types=bg.types, prior={(0, (0, 0)): F(1, 3)}, games=bg.games)


@pytest.mark.parametrize("field, value", [("thetas", ("th", 2)), ("types", (("t1", 1), ("t2",)))])
def test_parameter_and_type_labels_must_be_strings(two_type_bayes, field, value):
    with pytest.raises(ValidationError, match="labels .*must be strings"):
        dataclasses.replace(two_type_bayes, **{field: value})


def test_ex_ante_labels_colliding_strategies_by_their_label_lists(two_type_bayes):
    g = ex_ante_game(parse_bayes(colliding_strategies_bayes()))
    assert g.actions == (('["a","a"]', '["a","aa"]', '["aa","a"]', '["aa","aa"]'), ("L", "R"))
    # Only the labels change: the payoffs are those of actions U and D.
    assert g.payoffs == ex_ante_game(two_type_bayes).payoffs


def test_conditional_beliefs(two_type_bayes):
    bg = two_type_bayes
    # Each type of player 1 pins the state down completely.
    t1 = conditional_belief(bg, 0, 0)
    assert t1.distribution == {(0, (0,)): F(1)}
    t1p = conditional_belief(bg, 0, 1)
    assert t1p.distribution == {(1, (0,)): F(1)}
    # Player 2's single type stays uncertain between the two states.
    t2 = conditional_belief(bg, 1, 0)
    assert t2.distribution == {(0, (0,)): F(1, 2), (1, (1,)): F(1, 2)}


def test_first_order_beliefs(two_type_bayes):
    bg = two_type_bayes
    assert first_order_belief(bg, 0, 0) == {0: F(1)}
    assert first_order_belief(bg, 0, 1) == {1: F(1)}
    assert first_order_belief(bg, 1, 0) == {0: F(1, 2), 1: F(1, 2)}


def test_second_order_beliefs(two_type_bayes):
    bg = two_type_bayes
    # Player 2 puts half its mass on each opponent first-order-belief class.
    out = second_order_belief(bg, 1, 0)
    assert out == {
        (0, (((0, F(1)),),)): F(1, 2),
        (1, (((1, F(1)),),)): F(1, 2),
    }
    # Player 1's types know the state, and the opponent class is unique.
    out = second_order_belief(bg, 0, 0)
    assert list(out.values()) == [F(1)]


def test_ex_ante_game_labels_and_payoffs(two_type_bayes):
    g = ex_ante_game(two_type_bayes)
    assert g.players == ("1", "2")
    assert g.actions == (("UU", "UD", "DU", "DD"), ("L", "R"))
    expected = {
        ("UU", "L"): (F(-1, 2), F(1, 10)),
        ("UU", "R"): (F(-1, 2), F(0)),
        ("UD", "L"): (F(1, 2), F(1, 20)),
        ("UD", "R"): (F(-1), F(1, 2)),
        ("DU", "L"): (F(-1), F(1, 20)),
        ("DU", "R"): (F(1, 2), F(1, 2)),
        ("DD", "L"): (F(0), F(0)),
        ("DD", "R"): (F(0), F(1)),
    }
    for profile in g.profiles():
        key = tuple(g.actions[i][a] for i, a in enumerate(profile))
        assert g.payoffs[g.profile_index(profile)] == expected[key]


def test_ex_ante_size_limit(two_type_bayes, monkeypatch):
    monkeypatch.setattr(bayes, "DEFAULT_MAX_PROFILES", 7)
    with pytest.raises(SizeLimit):
        ex_ante_game(two_type_bayes)


def test_interim_games_bound_their_profile_count_before_building():
    # 12 types of 2 actions each per player: 4**12 interim profiles.
    bg = parse_bayes(many_types_bayes(12))
    start = time.perf_counter()
    for build in (interim_game, interim_correlated_game):
        with pytest.raises(SizeLimit, match="interim game would have more than 100000 profiles"):
            build(bg)
    with pytest.raises(SizeLimit, match="ex-ante game would have more than 100000 profiles"):
        ex_ante_game(bg)
    assert time.perf_counter() - start < 1


def test_interim_games_bound_their_payoff_entries_before_building():
    # 8 types of 2 actions each per player: 4**8 profiles, within the
    # profile bound, but 16 payoffs per profile.
    bg = parse_bayes(many_types_bayes(8))
    start = time.perf_counter()
    for build in (interim_game, interim_correlated_game):
        with pytest.raises(SizeLimit, match="interim game would have more than 200000 payoff entries"):
            build(bg)
    assert time.perf_counter() - start < 1
    # 4 types each: 2**8 profiles of 8 players, 2,048 entries, still built.
    assert len(interim_game(parse_bayes(many_types_bayes(4))).payoffs) == 256


def test_the_payoff_entry_bound_is_twice_the_profile_bound(two_type_bayes, monkeypatch):
    # The interim game of two_type_bayes: 8 profiles of 3 player-type pairs.
    monkeypatch.setattr(bayes, "DEFAULT_MAX_PROFILES", 12)
    assert len(interim_game(two_type_bayes).payoffs) == 8
    monkeypatch.setattr(bayes, "DEFAULT_MAX_PROFILES", 11)
    with pytest.raises(SizeLimit, match="more than 22 payoff entries"):
        interim_game(two_type_bayes)
    # A 2-player ex-ante game within the profile bound is within both.
    monkeypatch.setattr(bayes, "DEFAULT_MAX_PROFILES", 8)
    assert len(ex_ante_game(two_type_bayes).payoffs) == 8


def test_interim_game_three_players(two_type_bayes):
    g = interim_game(two_type_bayes)
    assert g.players == ("t1", "t1p", "t2")
    assert g.actions == (("U", "D"), ("U", "D"), ("L", "R"))
    # Profile order is (t1 action, t1p action, t2 action).
    expected = {
        (0, 0, 0): (F(1), F(-2), F(1, 10)),
        (0, 0, 1): (F(-2), F(1), F(0)),
        (0, 1, 0): (F(1), F(0), F(1, 20)),
        (0, 1, 1): (F(-2), F(0), F(1, 2)),
        (1, 0, 0): (F(0), F(-2), F(1, 20)),
        (1, 0, 1): (F(0), F(1), F(1, 2)),
        (1, 1, 0): (F(0), F(0), F(0)),
        (1, 1, 1): (F(0), F(0), F(1)),
    }
    for profile in g.profiles():
        assert g.payoffs[g.profile_index(profile)] == expected[profile]


def test_interim_correlated_single_type_collapses(matching_bayes):
    g = interim_correlated_game(matching_bayes)
    assert g.players == ("1", "2")
    assert g.actions == (("a1", "a2", "a3"), ("b1", "b2", "b3"))
    expected = [
        [(F(-9, 2), F(-9, 2)), (F(-9, 2), F(-9, 2)), (F(-10), F(0))],
        [(F(-9, 2), F(-9, 2)), (F(-9, 2), F(-9, 2)), (F(-10), F(0))],
        [(F(0), F(-10)), (F(0), F(-10)), (F(0), F(0))],
    ]
    for r in range(3):
        for c in range(3):
            assert g.payoffs[g.profile_index((r, c))] == expected[r][c]


def test_interim_correlated_multi_type_matches_interim(two_type_bayes):
    # Under a common prior the two interim conditioning rules coincide.
    a = interim_game(two_type_bayes)
    b = interim_correlated_game(two_type_bayes)
    assert a.players == b.players
    assert a.payoffs == b.payoffs


def test_zero_probability_type_rejected(two_type_bayes):
    bg = two_type_bayes
    extended = BayesianGame(
        thetas=bg.thetas,
        types=(bg.types[0] + ("ghost",), bg.types[1]),
        prior=bg.prior,
        games=bg.games,
    )
    with pytest.raises(ZeroProbabilityType):
        conditional_belief(extended, 0, 2)
    with pytest.raises(ZeroProbabilityType):
        interim_game(extended)


@pytest.mark.parametrize(
    "player, t",
    [("nobody", "t1"), (0, 7), (0, -1), (2, 0), (-1, 0), ("1", "t2"), ("2", "nope")],
)
def test_unknown_players_and_types_raise_index_out_of_range(two_type_bayes, player, t):
    with pytest.raises(IndexOutOfRange):
        conditional_belief(two_type_bayes, player, t)


def test_labels_and_indices_name_the_same_belief(two_type_bayes):
    by_label = conditional_belief(two_type_bayes, "1", "t1p")
    assert by_label == conditional_belief(two_type_bayes, 0, 1)


@pytest.mark.parametrize("key", [True, False, 1.0, 0.0, None, [0], (0,), F(1)], ids=repr)
def test_only_strings_and_ints_are_player_or_type_keys(two_type_bayes, key):
    bg = two_type_bayes
    with pytest.raises(IndexOutOfRange):
        bg.player_index(key)
    with pytest.raises(IndexOutOfRange):
        bg.type_index(0, key)
    with pytest.raises(IndexOutOfRange):
        conditional_belief(bg, key, 0)


def _one_state_game(prior, entry=F(1)):
    game = Game(
        players=("A", "B"),
        actions=(("a0", "a1"), ("b0", "b1")),
        payoffs=((entry, F(0)), (F(0), F(1)), (F(2), F(-1)), (F(1, 2), F(3))),
    )
    return BayesianGame(thetas=("s",), types=(("t0", "t1"), ("u",)), prior=prior, games=(game,))


@pytest.mark.parametrize(
    "prior, entry",
    [
        ({(0, (0, 0)): 0.5, (0, (1, 0)): 0.5}, F(1)),
        ({(0, (0, 0)): F(1, 2), (0, (1, 0)): F(1, 2)}, 0.5),
        ({(0, (0, 0)): F(1, 2), (0, (1, 0)): F(1, 2)}, 1),
    ],
    ids=["float prior", "float payoff", "int payoff"],
)
def test_inexact_prior_and_payoff_entries_rejected(prior, entry):
    # The game is rejected as it is built, before any companion builder.
    with pytest.raises(ValidationError):
        _one_state_game(prior, entry)


def test_fraction_prior_game_builds():
    bg = _one_state_game({(0, (0, 0)): F(1, 2), (0, (1, 0)): F(1, 2)})
    validate_bayesian_game(bg)
    assert first_order_belief(bg, 0, 0) == {0: F(1)}
    assert interim_game(bg).payoffs[0] == (F(1), F(1), F(0))


@pytest.mark.parametrize(
    "thetas, types",
    [
        (("s",), (("t1", "t1p", "t1"), ("u",))),
        (("s",), (("t1",), ("u", "u"))),
        (("s", "s"), (("t1",), ("u",))),
    ],
    ids=["types of player A", "types of player B", "thetas"],
)
def test_duplicate_type_or_parameter_labels_rejected(thetas, types):
    game = _one_state_game({(0, (0, 0)): F(1)}).games[0]
    with pytest.raises(DuplicateLabel):
        BayesianGame(thetas=thetas, types=types, prior={(0, (0, 0)): F(1)}, games=(game,) * len(thetas))


def test_parse_bayes_rejects_a_repeated_type_label():
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["types"]["1"].append(doc["types"]["1"][0])
    with pytest.raises(DuplicateLabel, match="duplicate type label for player '1'"):
        parse_bayes(json.dumps(doc))


def test_ex_ante_with_a_one_action_player_of_many_types_is_quick():
    # Player A: 2 actions, 14 types, 2**14 ex-ante profiles. Player B: one
    # action and 5,000 types, all but 14 of zero prior, which add no
    # profiles and so must add no work per profile either.
    def doc(b_types):
        return json.dumps({
            "players": ["A", "B"],
            "actions": {"A": ["U", "D"], "B": ["L"]},
            "thetas": ["th"],
            "types": {"A": [f"a{k}" for k in range(14)], "B": [f"b{k}" for k in range(b_types)]},
            "prior": [["th", [f"a{k}", f"b{k}"], "1/14"] for k in range(14)],
            "payoffs": {"th": [[["1", "2"]], [["3", "-4"]]]},
        })

    start = time.perf_counter()
    g = ex_ante_game(parse_bayes(doc(5000)))
    assert time.perf_counter() - start < 1
    assert len(g.payoffs) == 2**14
    assert g.payoffs == ex_ante_game(parse_bayes(doc(14))).payoffs


def test_many_parameter_values_of_one_type_profile_sum_flat():
    # 20,000 parameter values share the one type profile; their weighted
    # payoff columns are summed in one flat pass, not one nested step per
    # value. Nested steps take C stack per value: on a thread of 1 MiB
    # stack, 20,000 of them crash the interpreter (200,000 on an 8 MiB
    # main thread).
    n = 20_000
    game = Game(players=("A", "B"), actions=(("a",), ("b",)), payoffs=((F(1), F(-2, 3)),))
    bg = BayesianGame(
        thetas=tuple(f"s{k}" for k in range(n)),
        types=(("t",), ("u",)),
        prior={(k, (0, 0)): F(1, n) for k in range(n)},
        games=(game,) * n,
    )
    previous = threading.stack_size(1 << 20)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            companion = pool.submit(ex_ante_game, bg)
    finally:
        threading.stack_size(previous)
    assert companion.result().payoffs == ((F(1), F(-2, 3)),)


BAYES_CHECKS = {
    "no parameter value": (lambda bg: {"thetas": (), "games": ()}, BadDimension, "at least one parameter value is required"),
    "one game for two values": (lambda bg: {"games": bg.games[:1]}, ValidationError, "needs one Game per parameter value"),
    "not a game": (lambda bg: {"games": (bg.games[0], "game")}, ValidationError, "needs one Game per parameter value"),
    "other players": (
        lambda bg: {"games": (bg.games[0], dataclasses.replace(bg.games[1], players=("1", "3")))},
        ValidationError,
        "the games of all parameter values must have the same players and actions",
    ),
    "other actions": (
        lambda bg: {"games": (bg.games[0], dataclasses.replace(bg.games[1], actions=(("U", "D"), ("L", "M"))))},
        ValidationError,
        "the games of all parameter values must have the same players and actions",
    ),
    "types of one player": (lambda bg: {"types": bg.types[:1]}, BadDimension, "types must be given for every player"),
    "unknown parameter index": (lambda bg: {"prior": {(2, (0, 0)): F(1)}}, ValidationError, "prior references unknown parameter index 2"),
    "type profile length": (lambda bg: {"prior": {(0, (0,)): F(1)}}, ValidationError, "prior type profile (0,) has wrong length"),
    "unknown type index": (
        lambda bg: {"prior": {(0, (0, 1)): F(1)}},
        ValidationError,
        "prior references unknown type index 1 of player 1",
    ),
    "negative probability": (
        lambda bg: {"prior": {(0, (0, 0)): F(-1, 2), (1, (1, 0)): F(3, 2)}},
        ValidationError,
        "negative prior probability",
    ),
}


@pytest.mark.parametrize("case", BAYES_CHECKS)
def test_every_shape_check_of_a_bayesian_game_raises_its_error(two_type_bayes, case):
    changes, error, message = BAYES_CHECKS[case]
    with pytest.raises(error, match=re.escape(message)) as info:
        dataclasses.replace(two_type_bayes, **changes(two_type_bayes))
    assert type(info.value) is error
