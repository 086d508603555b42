import dataclasses
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from periodic_games import (
    BayesianGame,
    Game,
    build_periodicity_graph,
    coco_solution,
    ex_ante_game,
    expected_utility,
    iesds,
    interim_correlated_game,
    interim_game,
    make_game,
    nash_support_enumeration,
    payoff,
    periodic_mixed,
)
from periodic_games.errors import (
    BadDimension,
    BadLiteral,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    MissingProfile,
    ParseError,
    SizeLimit,
    ValidationError,
)
from periodic_games import game
from periodic_games.game import parse_fraction, parse_rational, validate_mixed
from periodic_games.io import parse_bayes, parse_game, serialize_game
from periodic_games.generate import random_game

from conftest import FIXTURES, assert_own_views, assert_same_as_public, pure_profile, random_rational_game


def small():
    return make_game(
        ["A", "B"],
        [["x", "y"], ["l", "r"]],
        [[(1, 2), (3, 4)], [(5, 6), ("7/2", -1)]],
    )


def test_payoff_lookup():
    g = small()
    assert payoff(g, (0, 0)) == (1, 2)
    assert payoff(g, (1, 1)) == (Fraction(7, 2), -1)


def test_payoffs_are_fractions():
    g = small()
    assert all(isinstance(v, Fraction) for vec in g.payoffs for v in vec)


def test_float_payoff_rejected():
    with pytest.raises(ValidationError):
        make_game(["A", "B"], [["x"], ["l"]], [[(0.5, 1)]])


@pytest.mark.parametrize(
    "algorithm",
    [build_periodicity_graph, iesds, nash_support_enumeration, periodic_mixed, coco_solution],
    ids=lambda f: f.__name__,
)
def test_every_algorithm_rejects_a_float_payoff_in_a_directly_built_game(algorithm):
    # Game(...) skips make_game's literal parser, but validates itself, so
    # no algorithm is ever handed the float.
    rest = (0,) if algorithm is periodic_mixed else ()
    with pytest.raises(ValidationError, match="not a Fraction"):
        g = Game(
            players=("A", "B"),
            actions=(("x", "y"), ("l", "r")),
            payoffs=((Fraction(1), Fraction(0)), (Fraction(2), 0.5), (Fraction(0), Fraction(3)), (Fraction(1), Fraction(1))),
        )
        algorithm(g, *rest)


@pytest.mark.parametrize("entry", [True, False, 0.5, "abc", "1/0", None, [1]])
def test_make_game_rejects_bad_literals_with_one_typed_error(entry):
    # The same parser as the file reader: BadLiteral is a ValidationError
    # here and a ParseError there.
    with pytest.raises(BadLiteral) as info:
        make_game(["A", "B"], [["x"], ["l"]], [[(entry, 1)]])
    assert isinstance(info.value, ValidationError)
    assert isinstance(info.value, ParseError)


def _two_by_two(tokens):
    """A 2x2 table whose eight entries, in row-major order, are ``tokens``."""
    pairs = [tokens[k:k + 2] for k in range(0, 8, 2)]
    return [[pairs[0], pairs[1]], [pairs[2], pairs[3]]]


def _read_table(tokens, through_json):
    table = _two_by_two(tokens)
    if through_json:
        doc = {"players": ["A", "B"], "actions": {"A": ["x", "y"], "B": ["l", "r"]}, "payoffs": table}
        return parse_game(json.dumps(doc))
    return make_game(["A", "B"], [["x", "y"], ["l", "r"]], table)


def _literal_error(token) -> str:
    with pytest.raises(BadLiteral) as info:
        parse_fraction(token)
    return str(info.value)


@pytest.mark.parametrize("through_json", [False, True], ids=["make_game", "parse_game"])
@pytest.mark.parametrize("good, bad", [(1, True), (1, 1.0), ("1", True), ("1", 1.0), (0, False)])
def test_a_literal_read_earlier_never_admits_a_bad_one_that_hashes_equal(through_json, good, bad):
    # True == 1 == 1.0 as dict keys: a memo keyed by raw tokens would take
    # the bad token for the good one read before it.
    tokens = [good, good, good, "0", bad, "0", good, "0"]
    with pytest.raises(BadLiteral) as info:
        _read_table(tokens, through_json)
    assert str(info.value) == _literal_error(bad)


@pytest.mark.parametrize(
    "tokens, first_bad",
    [
        (["1/2", "abc", "1/2", True, "abc", "0", "0", "0"], "abc"),
        (["1/2", True, "abc", "abc", "0", "0", "0", "0"], True),
        (["1/2", "1/0", "1/2", "abc", "1/0", "0", "0", "0"], "1/0"),
    ],
)
def test_the_first_bad_literal_in_row_major_order_raises_even_when_repeated(tokens, first_bad):
    for through_json in (False, True):
        with pytest.raises(BadLiteral) as info:
            _read_table(tokens, through_json)
        assert str(info.value) == _literal_error(first_bad)


def test_repeated_literal_texts_read_as_the_unmemoized_parse():
    tokens = ["1/2", "2/4", "1/2", "0.5", "5e-1", "1/2", 3, "3"]
    for through_json in (False, True):
        g = _read_table(tokens, through_json)
        assert [v for vec in g.payoffs for v in vec] == [parse_fraction(t) for t in tokens]
        assert all(type(v) is Fraction for vec in g.payoffs for v in vec)


def test_a_mixed_table_parses_each_text_once_and_every_other_token_alone(monkeypatch):
    calls = []

    def counted(token):
        calls.append(token)
        return parse_rational(token)

    monkeypatch.setattr(game, "parse_rational", counted)
    tokens = ["1/2", 3, "1/2", Fraction(1, 3), "1/2", 3, "0", "0"]
    g = _read_table(tokens, through_json=False)
    assert calls == ["1/2", 3, Fraction(1, 3), 3, "0"]
    # Player A's entries 1/2, 1/2, 1/2, 0; player B's 3, 1/3, 3, 0.
    assert g == Game(g.players, g.actions, g.payoffs) and [own.scale for own in g.own_payoffs] == [2, 3]
    assert [v for vec in g.payoffs for v in vec] == [parse_fraction(t) for t in tokens]


def test_directly_built_game_with_inexact_payoffs_rejected():
    for entry in (0.5, 1, True):
        with pytest.raises(ValidationError):
            Game(players=("A", "B"), actions=(("x",), ("l",)), payoffs=((entry, Fraction(1)),))


def _bayesian_game_with(entry):
    g = small()
    prior = {(0, (0, 0)): entry, (0, (0, 1)): Fraction(1, 2)}
    return BayesianGame(thetas=("s",), types=(("t",), ("u0", "u1")), prior=prior, games=(g,))


@pytest.mark.parametrize(
    "build",
    [
        lambda entry: dataclasses.replace(small(), payoffs=small().payoffs[:3] + ((Fraction(1), entry),)),
        _bayesian_game_with,
    ],
    ids=["replace", "BayesianGame"],
)
@pytest.mark.parametrize("entry", [0.5, 1, True], ids=repr)
def test_replace_and_bayesian_game_reject_an_inexact_entry(build, entry):
    # Game(...) itself: test_directly_built_game_with_inexact_payoffs_rejected.
    with pytest.raises(ValidationError):
        build(entry)
    # The same construction with the entry made exact goes through.
    build(Fraction(1, 2))


def _random_shape_game(rng, one_action):
    n = rng.randint(2, 4)
    shape = [rng.randint(1, 3) for _ in range(n)]
    if one_action:
        shape[rng.randrange(n)] = 1
    players = [f"P{i}" for i in range(n)]
    actions = [[f"a{k}" for k in range(size)] for size in shape]
    payoffs = tuple(
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
        for _ in itertools.product(*(range(size) for size in shape))
    )
    return Game(players=tuple(players), actions=tuple(map(tuple, actions)), payoffs=payoffs)


def test_own_payoffs_match_payoff_lookup():
    rng = random.Random(404)
    for k in range(60):
        g = _random_shape_game(rng, one_action=k % 3 == 0)
        for i in range(g.num_players):
            others = [j for j in range(g.num_players) if j != i]
            rows, columns, scale = g.own_payoffs[i]
            assert list(columns) == list(itertools.product(*(range(g.shape[j]) for j in others)))
            assert len(rows) == g.shape[i]
            for a, row in enumerate(rows):
                assert len(row) == len(columns)
                for opp, value in zip(columns, row):
                    profile = [0] * g.num_players
                    profile[i] = a
                    for j, b in zip(others, opp):
                        profile[j] = b
                    assert Fraction(value, scale) == payoff(g, profile)[i]


def test_duplicate_player_label():
    with pytest.raises(DuplicateLabel):
        make_game(["A", "A"], [["x"], ["l"]], [[(0, 0)]])


def test_duplicate_action_label():
    with pytest.raises(DuplicateLabel):
        make_game(["A", "B"], [["x", "x"], ["l"]], [[(0, 0)], [(0, 0)]])


def test_labels_must_be_strings_so_a_game_round_trips():
    table = [[(1, 2)], [(3, "1/2")]]
    g = make_game(["1", "2"], [["3", "4"], ["5"]], table)
    assert parse_game(serialize_game(g)) == g
    for players, actions in [
        ([1, 2], [[3, 4], [5]]),
        (["A", "B"], [["x", 4], ["l"]]),
        (["A", "B"], [["x", "y"], [True]]),
    ]:
        with pytest.raises(ValidationError, match="labels .*must be strings"):
            make_game(players, actions, table)
    with pytest.raises(ValidationError, match="player labels must be strings"):
        Game(players=(None, 2.5), actions=g.actions, payoffs=g.payoffs)


def test_ragged_table_rejected():
    with pytest.raises(MissingProfile):
        make_game(["A", "B"], [["x", "y"], ["l", "r"]], [[(0, 0), (0, 0)]])


def test_wrong_vector_length_rejected():
    with pytest.raises(BadDimension):
        make_game(["A", "B"], [["x"], ["l"]], [[(0, 0, 0)]])


def test_a_ragged_table_names_the_axis_and_the_profile_prefix():
    with pytest.raises(MissingProfile, match=r"player 'B' axis at profile prefix \(1,\) must have 2 entries") as info:
        make_game(["A", "B"], [["x", "y"], ["l", "r"]], [[(0, 0), (0, 0)], [(0, 0)]])
    # A ragged document is a ParseError too.
    assert isinstance(info.value, ParseError) and isinstance(info.value, ValidationError)
    with pytest.raises(BadDimension, match=r"payoff vector at profile \(0, 1\) must have length 2"):
        make_game(["A", "B"], [["x"], ["l", "r"]], [[(0, 0), (0, 0, 0)]])


def test_make_game_reads_a_table_nested_deeper_than_the_recursion_limit():
    # 1,200 one-action players: the table nests 1,201 lists deep.
    n = 1200
    table = [0] * n
    for _ in range(n):
        table = [table]
    g = make_game([f"P{i}" for i in range(n)], [["a"]] * n, table)
    assert g.shape == (1,) * n
    assert g.payoffs == ((Fraction(0),) * n,)


def test_one_player_rejected():
    with pytest.raises(BadDimension):
        make_game(["A"], [["x"]], [(0,)])


def test_label_and_index_access():
    g = small()
    assert g.player_index("B") == 1
    assert g.action_index("A", "y") == 1
    assert g.action_index(1, "r") == 1
    with pytest.raises(IndexOutOfRange):
        g.player_index("C")
    with pytest.raises(IndexOutOfRange):
        g.player_index(2)
    with pytest.raises(IndexOutOfRange):
        g.action_index("A", "r")


NOT_KEYS = [True, False, 1.0, 0.0, None, [0], (0,), Fraction(1)]


@pytest.mark.parametrize("key", NOT_KEYS, ids=repr)
def test_only_strings_and_ints_are_player_or_action_keys(key):
    g = small()
    with pytest.raises(IndexOutOfRange):
        g.player_index(key)
    with pytest.raises(IndexOutOfRange):
        g.action_index(0, key)
    with pytest.raises(IndexOutOfRange):
        g.action_index(key, 0)


def test_expected_utility_pure_matches_payoff():
    g = small()
    for profile in g.profiles():
        assert expected_utility(g, pure_profile(g, profile)) == payoff(g, profile)


def test_expected_utility_mixed():
    g = small()
    half = Fraction(1, 2)
    mixed = ((half, half), (half, half))
    assert expected_utility(g, mixed) == (Fraction(25, 8), Fraction(11, 4))


def test_validate_mixed_rejects_bad_vectors():
    g = small()
    with pytest.raises(ValidationError):
        validate_mixed(g, ((Fraction(2), Fraction(-1)), (Fraction(1), Fraction(0))))
    with pytest.raises(ValidationError):
        validate_mixed(g, ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(0))))
    with pytest.raises(DimensionMismatch):
        validate_mixed(g, ((Fraction(1),),))


def test_expected_utility_reads_only_exact_mixtures():
    g = small()
    for bad in ((0.5, 0.5), (True, False), ("1/2", "1/2")):
        with pytest.raises(ValidationError):
            expected_utility(g, (bad, (Fraction(1, 2), Fraction(1, 2))))
    half = Fraction(1, 2)
    assert expected_utility(g, ((1, 0), (half, half))) == expected_utility(
        g, ((Fraction(1), Fraction(0)), (half, half))
    )


def test_the_integer_payoff_view_scales_each_player_by_the_lcm_of_their_denominators():
    rng = random.Random(405)
    for k in range(30):
        assert_own_views(_random_shape_game(rng, one_action=k % 3 == 0))


def _state_weighted_bayes(types, actions=1):
    """Player A with ``types`` types and ``actions`` actions beside a
    two-action player B with one type; type k has weight k in one state and
    k + 1 in the other, so its interim conditional has denominator 2k + 1."""
    weights = [(k, k + 1) for k in range(1, types + 1)]
    total = sum(map(sum, weights))
    prior = {(theta, (k, 0)): Fraction(w[theta], total) for k, w in enumerate(weights) for theta in (0, 1)}
    labels = (tuple(f"a{k}" for k in range(actions)), ("l", "r"))
    games = tuple(
        Game(("A", "B"), labels, tuple(
            (Fraction(3 * a - b + theta), Fraction(a + 2 * b - theta, 3)) for a in range(actions) for b in range(2)
        ))
        for theta in range(2)
    )
    type_labels = (tuple(f"t{k}" for k in range(types)), ("u",))
    return BayesianGame(("s0", "s1"), type_labels, prior, games)


def _random_games():
    rng = random.Random(406)
    return [random_game(rng) for _ in range(20)]


def _companions(build):
    """``build`` on the Bayesian fixtures and on a state-weighted game whose
    types have distinct conditional denominators."""
    bayesian = [parse_bayes(path.read_text()) for path in sorted(FIXTURES.glob("*.bayes.json"))]
    return [build(bg) for bg in bayesian + [_state_weighted_bayes(6, actions=2)]]


F = Fraction
# Each construction route of a Game, and the games it builds.
ROUTES = {
    "Game": lambda: [Game(("A", "B"), (("x",), ("l", "r")), ((F(1, 2), F(-3)), (F(5, 6), F(7, 4))))],
    "replace": lambda: [dataclasses.replace(small(), payoffs=small().payoffs[:3] + ((F(2, 9), F(1, 10)),))],
    "make_game": lambda: [
        make_game(
            ["A", "B"], [["x", "y"], ["l", "r"]], _two_by_two(["1/2", 3, "0.25", F(1, 3), 2, "5/6", "-7", F(3, 8)])
        )
    ],
    "parse_game": lambda: [parse_game(path.read_text()) for path in sorted(FIXTURES.glob("*.game.json"))],
    "random_game": _random_games,
    "ex_ante_game": lambda: _companions(ex_ante_game),
    "interim_game": lambda: _companions(interim_game),
    "interim_correlated_game": lambda: _companions(interim_correlated_game),
}


@pytest.mark.parametrize("route", ROUTES)
def test_every_construction_route_derives_one_integer_view_per_player(route):
    games = ROUTES[route]()
    assert games
    for g in games:
        assert_own_views(g)


@pytest.mark.parametrize("route", ROUTES)
def test_every_construction_route_stores_canonical_integer_columns(route):
    for g in ROUTES[route]():
        assert len(g.columns) == len(g.scales) == g.num_players
        for i, (column, scale) in enumerate(zip(g.columns, g.scales)):
            # The lcm of the player's denominators, so no common factor is left.
            assert type(column) is tuple and {type(v) for v in column} | {type(scale)} == {int}
            assert scale == math.lcm(*(vec[i].denominator for vec in g.payoffs))
            assert math.gcd(scale, *column) == 1
            assert column == tuple(vec[i] * scale for vec in g.payoffs)


@pytest.mark.parametrize("route", ROUTES)
def test_every_construction_route_builds_the_game_of_the_public_constructor(route):
    for g in ROUTES[route]():
        assert_same_as_public(g)


class FormedFraction(Exception):
    pass


def test_games_built_from_integers_form_a_fraction_only_when_payoffs_are_read(monkeypatch):
    bayesian = [parse_bayes(path.read_text()) for path in sorted(FIXTURES.glob("*.bayes.json"))]
    bayesian.append(_state_weighted_bayes(6, actions=2))
    rng = random.Random(407)

    def no_fraction(*args):
        raise FormedFraction(args)

    monkeypatch.setattr(game, "Fraction", no_fraction)
    games = [random_game(rng) for _ in range(20)]
    games += [build(bg) for bg in bayesian for build in (ex_ante_game, interim_game, interim_correlated_game)]
    for g in games:
        assert len(g.own_payoffs) == g.num_players
        assert serialize_game(g).endswith("\n}\n")
        with pytest.raises(FormedFraction):
            g.payoffs
    monkeypatch.undo()
    for g in games:
        assert_same_as_public(g)


def test_a_parsed_game_of_k_and_k_d_texts_forms_a_fraction_only_when_payoffs_are_read(monkeypatch):
    rng = random.Random(408)
    integral = [random_game(rng, n) for n in (2, 2, 3, 4)]
    rational = [random_rational_game(rng, n) for n in (2, 2, 3, 4)]
    texts = [serialize_game(g) for g in integral + rational]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.game.json"))]
    assert any("/" in text for text in texts)

    def no_fraction(*args):
        raise FormedFraction(args)

    monkeypatch.setattr(game, "Fraction", no_fraction)
    games = [parse_game(text) for text in texts]
    for g in games:
        assert len(g.own_payoffs) == g.num_players
        assert parse_game(serialize_game(g)) == g
        with pytest.raises(FormedFraction):
            g.payoffs
    assert [serialize_game(g) for g in games[:8]] == texts[:8]
    monkeypatch.undo()
    for g in games:
        assert_same_as_public(g)
    assert games[:8] == integral + rational


def test_a_parsed_game_keeps_the_payoff_vectors_it_was_built_from():
    g = small()
    vectors = g.payoffs
    assert dataclasses.replace(g).payoffs is vectors and Game(g.players, g.actions, vectors).payoffs is vectors


@pytest.mark.parametrize(
    "vector, scales",
    [((10 ** sys.get_int_max_str_digits(), 1), (1, 1)), ((1, 1), (10 ** sys.get_int_max_str_digits(), 1)),
     ((-(10 ** 5000) - 1, 2), (7, 1))],
)
def test_serializing_a_game_built_from_integers_with_a_value_too_long_to_print_is_a_size_limit(vector, scales):
    g = Game._from_integers(("A", "B"), (("x",), ("l",)), [[v] for v in vector], scales)
    with pytest.raises(SizeLimit, match="too long to print"):
        serialize_game(g)


def test_a_game_built_from_integers_reduces_each_scale_by_its_gcd():
    g = Game._from_integers(("A", "B"), (("x", "y"), ("l",)), [(6, -9), (0, 10)], (12, 4))
    assert (g.columns, g.scales) == (((2, -3), (0, 5)), (4, 2))
    assert g.payoffs == ((F(1, 2), F(0)), (F(-3, 4), F(5, 2)))
    assert g == Game(g.players, g.actions, g.payoffs)


def test_interim_players_keep_small_scales_over_many_distinct_denominators():
    g = interim_game(_state_weighted_bayes(300))
    scales = [own.scale for own in g.own_payoffs]
    assert len(scales) == 301
    # A's payoffs are integers, so type k's pair is over a divisor of
    # 2k + 1; one scale for all players would be the lcm of all of them.
    assert max(scales[:300]) <= 601 and len(set(scales)) > 200
    assert len(str(math.lcm(*scales))) > 200
    assert_own_views(g)


SQUARE = make_game(("A", "B"), (("x", "y"), ("l", "r")), [[[1, 1], [0, 0]], [[0, 0], [1, 1]]])

GAME_CHECKS = {
    "profile_index out of range": (lambda: SQUARE.profile_index((0, 2)), IndexOutOfRange, "action index 2 out of range for size 2"),
    "make_game action lists": (lambda: make_game(("A", "B"), (("x",),), [[1, 1]]), BadDimension, "1 action lists for 2 players"),
    "validate_game action lists": (lambda: Game(("A", "B"), (("x",),), ((F(1), F(1)),)), BadDimension, "1 action lists for 2 players"),
    "empty action set": (lambda: Game(("A", "B"), (("x",), ()), ()), BadDimension, "player 'B' has an empty action set"),
    "profile count": (
        lambda: Game(("A", "B"), (("x",), ("l", "r")), ((F(1), F(1)),)),
        MissingProfile,
        "payoff tensor has 1 profiles, expected 2",
    ),
    "vector length": (
        lambda: Game(("A", "B"), (("x",), ("l",)), ((F(1),),)),
        BadDimension,
        "payoff vector at flat index 0 has length 1, expected 2",
    ),
    "payoff profile length": (lambda: payoff(SQUARE, (0,)), IndexOutOfRange, "profile length 1 != 2 players"),
    "mixture length": (
        lambda: validate_mixed(SQUARE, ((F(1),), (F(1), F(0)))),
        DimensionMismatch,
        "player 'A' mixture has 1 entries, expected 2",
    ),
}


@pytest.mark.parametrize("case", GAME_CHECKS)
def test_every_shape_check_of_a_game_raises_its_error(case):
    call, error, message = GAME_CHECKS[case]
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error
