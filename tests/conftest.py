import itertools
import json
import pathlib
import sys

import pytest

from periodic_games.io import parse_bayes, parse_game

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def pytest_runtest_logreport(report):
    """One explicit pass/fail line per acceptance gate test."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"\n{name}: {status}\n")


def load_game(name):
    return parse_game((FIXTURES / name).read_text())


def load_bayes(name):
    return parse_bayes((FIXTURES / name).read_text())


def many_types_bayes(types):
    """A 2x2 Bayesian game document with ``types`` types per player, type k
    of one player meeting type k of the other with probability 1/types:
    small, but its interim game has 4**types profiles."""
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["U", "D"], "B": ["L", "R"]},
        "thetas": ["th"],
        "types": {"A": [f"a{k}" for k in range(types)], "B": [f"b{k}" for k in range(types)]},
        "prior": [["th", [f"a{k}", f"b{k}"], f"1/{types}"] for k in range(types)],
        "payoffs": {"th": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]},
    }
    return json.dumps(doc, separators=(",", ":"))


@pytest.fixture
def coordination():
    return load_game("coordination_2x2.game.json")


@pytest.fixture
def bos():
    return load_game("battle_of_sexes.game.json")


@pytest.fixture
def prisoners():
    return load_game("prisoners_dilemma.game.json")


@pytest.fixture
def four_by_four():
    return load_game("four_by_four.game.json")


@pytest.fixture
def two_type_bayes():
    return load_bayes("two_type.bayes.json")


@pytest.fixture
def matching_bayes():
    return load_bayes("matching.bayes.json")


def brute_force_deviation(g, i, a):
    """Independent argmax over opponent profiles, first maximizer in lex order."""
    others = [j for j in range(g.num_players) if j != i]
    best_value = None
    best = None
    for opp in itertools.product(*(range(g.shape[j]) for j in others)):
        profile = [0] * g.num_players
        profile[i] = a
        for j, b in zip(others, opp):
            profile[j] = b
        value = g.payoffs[g.profile_index(profile)][i]
        if best_value is None or value > best_value:
            best_value = value
            best = opp
    return dict(zip(others, best))
