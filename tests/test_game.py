import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from periodic_games import (
    BayesianGame,
    Game,
    build_periodicity_graph,
    coco_solution,
    expected_utility,
    iesds,
    make_game,
    nash_support_enumeration,
    payoff,
    periodic_mixed,
    rationalizable_periodic,
)
from periodic_games.errors import (
    BadDimension,
    BadLiteral,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    MissingProfile,
    ParseError,
    ValidationError,
)
from periodic_games.game import validate_mixed
from periodic_games.generate import random_game

from conftest import pure_profile


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
    [build_periodicity_graph, rationalizable_periodic, iesds, nash_support_enumeration, periodic_mixed, coco_solution],
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
            rows, columns = g.own_payoffs[i]
            assert list(columns) == list(itertools.product(*(range(g.shape[j]) for j in others)))
            assert len(rows) == g.shape[i]
            for a, row in enumerate(rows):
                assert len(row) == len(columns)
                for opp, value in zip(columns, row):
                    profile = [0] * g.num_players
                    profile[i] = a
                    for j, b in zip(others, opp):
                        profile[j] = b
                    assert Fraction(value, g.payoff_scale) == payoff(g, profile)[i]


def test_duplicate_player_label():
    with pytest.raises(DuplicateLabel):
        make_game(["A", "A"], [["x"], ["l"]], [[(0, 0)]])


def test_duplicate_action_label():
    with pytest.raises(DuplicateLabel):
        make_game(["A", "B"], [["x", "x"], ["l"]], [[(0, 0)], [(0, 0)]])


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


def test_the_integer_payoff_view_scales_by_the_lcm_of_all_denominators():
    rng = random.Random(405)
    for k in range(30):
        g = _random_shape_game(rng, one_action=k % 3 == 0)
        assert g.payoff_scale == math.lcm(*(v.denominator for vec in g.payoffs for v in vec))
        for view in g.own_payoffs:
            assert all(type(v) is int for row in view.rows for v in row)
