import contextlib
import itertools
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from periodic_games import Game, make_game
from periodic_games.errors import BadLiteral
from periodic_games.game import MAX_LITERAL_DIGITS, payoff
from periodic_games.io import parse_bayes, parse_game, serialize_game

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


def colliding_strategies_bayes() -> str:
    """The two-type document with actions "a" and "aa" for the two-type
    player, whose strategies (a, aa) and (aa, a) both concatenate to "aaa"."""
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["actions"]["1"] = ["a", "aa"]
    return json.dumps(doc)


def colliding_pairs_bayes() -> str:
    """A 2x2 Bayesian game document of players "A" and "A.B", both with a
    type "x", so its interim players are qualified as ``player.type``; but
    A's type "B.b" and A.B's type "b" both qualify to "A.B.b"."""
    types = {"A": ["B.b", "x"], "A.B": ["b", "x"]}
    doc = {
        "players": ["A", "A.B"],
        "actions": {"A": ["U", "D"], "A.B": ["L", "R"]},
        "thetas": ["th"],
        "types": types,
        "prior": [["th", [s, t], "1/4"] for s in types["A"] for t in types["A.B"]],
        "payoffs": {"th": [[["1", "0"], ["0", "1"]], [["0", "2"], ["3", "0"]]]},
    }
    return json.dumps(doc)


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


def distinct_masses_bayes(types=40, actions=10, digits=1500):
    """A Bayesian game document of two players with ``actions`` actions and
    one type each beside a one-action player with ``types`` types, type k
    drawn with weight ``10**digits + k``: about 120 KB, but the lcm of its
    interim pairs' masses has about ``types * digits`` digits."""
    weights = [10**digits + k for k in range(1, types + 1)]
    total = sum(weights)
    labels = [f"a{i}" for i in range(actions)]
    table = [[[[str(i - j), str(j), str((i + j) % 5 + 1)]] for j in range(actions)] for i in range(actions)]
    doc = {
        "players": ["A", "C", "B"],
        "actions": {"A": labels, "C": labels, "B": ["b"]},
        "thetas": ["th"],
        "types": {"A": ["a"], "C": ["c"], "B": [f"t{k}" for k in range(types)]},
        "prior": [["th", ["a", "c", f"t{k}"], f"{w}/{total}"] for k, w in enumerate(weights)],
        "payoffs": {"th": table},
    }
    return json.dumps(doc, separators=(",", ":"))


def many_cycles_game(num_players=7):
    """A seeded game document with 2 actions per player and integer
    payoffs in [-9, 9]: about 30 KB for 7 players, but its periodicity graph
    has more than a hundred thousand simple cycles."""
    rng = random.Random(0)
    players = [f"P{i + 1}" for i in range(num_players)]

    def table(depth):
        if depth == num_players:
            return [str(rng.randint(-9, 9)) for _ in range(num_players)]
        return [table(depth + 1) for _ in range(2)]

    doc = {"players": players, "actions": {p: ["s1", "s2"] for p in players}, "payoffs": table(0)}
    return json.dumps(doc, indent=2)


def shift_game(n):
    """A document of n actions per player: A is paid 1 iff B plays A's
    index, B is paid 1 iff A plays the next index. Every argmax is strict,
    and the periodicity graph is the one cycle A:a0 -> B:b0 -> A:a1 -> ...
    -> B:b(n-1) through all 2n nodes."""
    table = [[[str(int(a == b)), str(int(a == (b + 1) % n))] for b in range(n)] for a in range(n)]
    actions = {"A": [f"a{k}" for k in range(n)], "B": [f"b{k}" for k in range(n)]}
    return json.dumps({"players": ["A", "B"], "actions": actions, "payoffs": table})


def tall_game(rows, cols):
    """A seeded document (``random.Random(1)``) of ``rows`` x ``cols``
    actions with integer payoffs in [-9, 9]."""
    rng = random.Random(1)
    table = [[[str(rng.randint(-9, 9)) for _ in range(2)] for _ in range(cols)] for _ in range(rows)]
    actions = {"A": [f"a{k}" for k in range(rows)], "B": [f"b{k}" for k in range(cols)]}
    return json.dumps({"players": ["A", "B"], "actions": actions, "payoffs": table})


@contextlib.contextmanager
def recursion_limit(limit):
    """The interpreter's recursion limit lowered to ``limit`` for a block."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


@contextlib.contextmanager
def int_max_str_digits(limit):
    """The interpreter's int-string conversion limit set to ``limit`` for a block."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def reference_parse_fraction(token):
    """The rational-literal parser as first written: every token through
    ``Fraction``, after the checks for bools, floats, underscores and
    literals longer than ``MAX_LITERAL_DIGITS``."""
    if isinstance(token, (bool, float)):
        raise BadLiteral(f"payoff entries must be integers or strings, got {token!r}")
    if isinstance(token, str) and "_" in token:
        raise BadLiteral(f"bad rational literal {token!r}: underscores are not part of a literal")
    if isinstance(token, str) and _reference_too_long(token):
        raise BadLiteral(
            f"rational literal has more than {MAX_LITERAL_DIGITS} digits"
            " (mantissa digits plus exponent magnitude)"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BadLiteral(f"bad rational literal {token!r}: {exc}") from None


def _reference_too_long(token):
    if len(token) <= MAX_LITERAL_DIGITS and "e" not in token and "E" not in token:
        return False
    mantissa, _, exponent = token.replace("E", "e").partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-").lstrip("0")
    if not magnitude.isdecimal():
        return digits > MAX_LITERAL_DIGITS
    if len(magnitude) > len(str(MAX_LITERAL_DIGITS)):
        return True
    return digits + int(magnitude) > MAX_LITERAL_DIGITS


def literal_outcome(parse, token):
    """What ``parse`` makes of ``token``: its value, or its BadLiteral's message."""
    try:
        return parse(token)
    except BadLiteral as exc:
        return str(exc)


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


def assert_own_views(g):
    """Each player's integer payoff view against the game's Fractions: its
    scale is the lcm of the player's own denominators, and each int entry
    over that scale is the player's payoff at the profile it stands for."""
    for i, (rows, opponents, scale) in enumerate(g.own_payoffs):
        assert scale == math.lcm(*(vec[i].denominator for vec in g.payoffs))
        others = [j for j in range(g.num_players) if j != i]
        assert list(opponents) == list(itertools.product(*(range(g.shape[j]) for j in others)))
        assert len(rows) == g.shape[i]
        for a, row in enumerate(rows):
            assert len(row) == len(opponents)
            for opp, value in zip(opponents, row):
                profile = [0] * g.num_players
                profile[i] = a
                for j, b in zip(others, opp):
                    profile[j] = b
                assert type(value) is int and Fraction(value, scale) == payoff(g, profile)[i]


def assert_same_as_public(g):
    """A game against the public constructor's game of the same Fractions:
    equal, hashed alike, with the same integer views and the same document
    bytes."""
    public = Game(g.players, g.actions, g.payoffs)
    assert g == public and hash(g) == hash(public)
    assert all(type(v) is Fraction for vec in g.payoffs for v in vec)
    assert g.own_payoffs == public.own_payoffs
    assert serialize_game(g) == serialize_game(public)


def own_payoff_matrix(g, i):
    """Player i's own payoffs as Fractions, read off ``g.own_payoffs``; its
    columns are labelled by ``g.own_payoffs[i].opponents``."""
    rows, _, scale = g.own_payoffs[i]
    return [[Fraction(v, scale) for v in row] for row in rows]


def pure_profile(g, profile):
    """Degenerate mixed profile with all mass on one pure profile."""
    return tuple(
        tuple(Fraction(int(a == profile[i])) for a in range(g.shape[i])) for i in range(g.num_players)
    )


def restrict_game(g, keep):
    """Subgame on the given per-player action-index subsets, labels kept."""
    kept = [sorted(k) for k in keep]
    actions = tuple(tuple(g.actions[i][a] for a in ks) for i, ks in enumerate(kept))
    payoffs = tuple(g.payoffs[g.profile_index(sub)] for sub in itertools.product(*kept))
    return Game(players=g.players, actions=actions, payoffs=payoffs)


def random_rational_game(rng, num_players=None):
    """A seeded game shaped as ``generate.random_game`` draws them, with
    payoffs k/d for k in [-12, 12] and d in [1, 12], so the lcm of the
    denominators (coprime ones included) is rarely 1."""
    n = num_players if num_players is not None else rng.randint(2, 4)
    shape = [rng.randint(2, 4) for _ in range(n)]

    def table(depth):
        if depth == n:
            return [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n)]
        return [table(depth + 1) for _ in range(shape[depth])]

    return make_game([f"P{i + 1}" for i in range(n)], [[f"s{k + 1}" for k in range(size)] for size in shape], table(0))


def transformed_game(g, order, action_orders=None, payoff=tuple):
    """``g`` relabelled and remapped: player k of the new game is player
    ``order[k]`` of ``g``, action c of old player j is renumbered from its
    action ``action_orders[j][c]``, and each payoff vector is
    ``payoff(vector)`` (indexed by the old players) before it is reordered."""
    action_orders = action_orders or [list(range(n)) for n in g.shape]

    def table(prefix):
        k = len(prefix)
        if k < g.num_players:
            return [table(prefix + (c,)) for c in range(g.shape[order[k]])]
        old = [0] * g.num_players
        for j, c in zip(order, prefix):
            old[j] = action_orders[j][c]
        u = payoff(g.payoffs[g.profile_index(old)])
        return [u[j] for j in order]

    players = [g.players[j] for j in order]
    actions = [[g.actions[j][a] for a in action_orders[j]] for j in order]
    return make_game(players, actions, table(()))


def moved_sets(sets, order, action_orders):
    """Per-player action sets of ``g`` as they read in
    ``transformed_game(g, order, action_orders)``."""
    return tuple(frozenset(c for c, a in enumerate(action_orders[j]) if a in sets[j]) for j in order)
