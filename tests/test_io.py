import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from periodic_games import (
    Game,
    build_periodicity_graph,
    enumerate_cycles,
    ex_ante_game,
    export_dot,
    interim_correlated_game,
    interim_game,
)
from periodic_games.errors import BadLiteral, ParseError, SizeLimit
from periodic_games import game
from periodic_games.game import MAX_LITERAL_DIGITS, PLAIN_LENGTH, parse_rational
from periodic_games.io import (
    MAX_NESTING,
    _dumps,
    _load_json,
    dump_report,
    format_fraction,
    parse_bayes,
    parse_fraction,
    parse_game,
    serialize_game,
)
from periodic_games.periodicity import Node

from conftest import (
    FIXTURES,
    colliding_pairs_bayes,
    colliding_strategies_bayes,
    int_max_str_digits,
    literal_outcome,
    random_rational_game,
    reference_parse_fraction,
)


def test_parse_fraction():
    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction("-7/2") == Fraction(-7, 2)
    assert parse_fraction(4) == Fraction(4)


# Fraction(str) reads underscores from Python 3.11 on; 3.10 rejects them.
@pytest.mark.parametrize("text", ["1_0", "1_000/3", "1/1_0", "0.2_5", "1e1_0", "-1_0", "_1", "1_"])
def test_a_literal_with_an_underscore_is_bad_on_every_python(text):
    with pytest.raises(BadLiteral, match="underscores are not part of a literal"):
        parse_fraction(text)


@pytest.mark.parametrize(
    "text, value",
    [(" 1/2 ", Fraction(1, 2)), ("+.5", Fraction(1, 2)), ("-7/2", Fraction(-7, 2)), ("2.5e-1", Fraction(1, 4)),
     ("10", Fraction(10)), ("\t-3E2\n", Fraction(-300))],
)
def test_the_rational_literal_grammar(text, value):
    assert parse_fraction(text) == value


def test_parse_fraction_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        parse_fraction(0.5)
    with pytest.raises(ParseError):
        parse_fraction(True)
    with pytest.raises(ParseError):
        parse_fraction("1/0")
    with pytest.raises(ParseError):
        parse_fraction("abc")


class FormedFraction(Exception):
    pass


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "2.5E+3000000", "1" * (MAX_LITERAL_DIGITS + 1)])
def test_parse_fraction_bounds_a_literal_before_any_power_of_ten(text, monkeypatch):
    def no_fraction(*args):
        raise FormedFraction(args)

    monkeypatch.setattr(game, "Fraction", no_fraction)  # the work: no Fraction is formed
    start = time.perf_counter()
    with pytest.raises(BadLiteral, match=f"more than {MAX_LITERAL_DIGITS} digits"):
        parse_fraction(text)
    assert time.perf_counter() - start < 0.5


# Tokens at the edges of the plain k and k/d texts read without Fraction,
# literals at and past MAX_LITERAL_DIGITS and PLAIN_LENGTH, and tokens that
# are not strings.
LITERAL_TOKENS = [
    "-0", "007", "+1", " 1/2", "1/2 ", "1/0", "0/0", "1/-2", "-", "1/", "--1", "-/2", "1//2", "1/2/3", "-0/5",
    "4/6", "-12/8", "0/7", "\u0661", "\uff11\uff12", "1/\uff12", "\u00b2", "1_0", "1e3", "0.5", "", " ", "-1 ",
    "1" * MAX_LITERAL_DIGITS, "-" + "9" * MAX_LITERAL_DIGITS, "1" * (MAX_LITERAL_DIGITS + 1),
    "1/" + "7" * (MAX_LITERAL_DIGITS - 1), "1/" + "7" * MAX_LITERAL_DIGITS, "1e4300", "1e4301",
    "9" * PLAIN_LENGTH, "-" + "9" * (PLAIN_LENGTH - 1), "9" * (PLAIN_LENGTH + 1), "7/" + "3" * (PLAIN_LENGTH - 2),
    "7/" + "3" * (PLAIN_LENGTH - 1), "9" * 640, "9" * 641,
    0, -7, 10**700, True, False, 0.5, Fraction(2, 4), None, [1],
]


@pytest.mark.parametrize("limit", [None, 640], ids=["default limit", "limit 640"])
def test_the_literal_parser_matches_the_fraction_parser_on_every_edge(limit):
    before = sys.get_int_max_str_digits()
    with int_max_str_digits(before if limit is None else limit):
        for token in LITERAL_TOKENS:
            expected = literal_outcome(reference_parse_fraction, token)
            got = literal_outcome(parse_fraction, token)
            assert type(got) is type(expected) and got == expected, token
            if isinstance(expected, Fraction):
                assert parse_rational(token) == (expected.numerator, expected.denominator), token
                assert isinstance(token, (int, Fraction)) or expected == Fraction(token), token
    assert sys.get_int_max_str_digits() == before


def test_parse_fraction_keeps_literals_within_the_bound():
    assert parse_fraction("1e10") == 10**10
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert parse_fraction(" -1.5E+0003 ") == -1500
    assert parse_fraction("1" * MAX_LITERAL_DIGITS) == (10**MAX_LITERAL_DIGITS - 1) // 9
    assert parse_fraction("1e4299") == 10**4299


def test_format_round_trip():
    for text in ("1/3", "-7/2", "0", "12"):
        assert format_fraction(parse_fraction(text)) == text


def test_game_round_trip(bos):
    text = serialize_game(bos)
    again = parse_game(text)
    assert again == bos
    assert serialize_game(again) == text


def test_parse_game_reports_json_position():
    with pytest.raises(ParseError) as info:
        parse_game("{\n  broken\n}")
    assert info.value.line == 2


def long_bare_integer_game(digits):
    """The prisoners' dilemma with one payoff a bare JSON integer of
    ``digits`` digits."""
    doc = json.loads((FIXTURES / "prisoners_dilemma.game.json").read_text())
    doc["payoffs"][0][0][0] = "LONG"
    return json.dumps(doc).replace('"LONG"', "9" * digits)


def test_a_bare_integer_past_the_conversion_limit_is_a_parse_error():
    # json.loads raises a plain ValueError past CPython's 4,300-digit limit.
    with pytest.raises(ParseError, match="number too long"):
        parse_game(long_bare_integer_game(5000))
    assert parse_game(long_bare_integer_game(4000)).payoffs[0][0] == Fraction("9" * 4000)


def test_parse_game_missing_key():
    with pytest.raises(ParseError):
        parse_game(json.dumps({"players": ["A", "B"]}))


def test_parse_game_rejects_float_payoff():
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["x"], "B": ["l"]},
        "payoffs": [[[0.5, 1]]],
    }
    with pytest.raises(ParseError):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("entry", [True, None, [1], "1/0", "abc"])
def test_parse_game_rejects_every_inexact_or_bad_payoff_literal(entry):
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["x"], "B": ["l"]},
        "payoffs": [[[entry, 1]]],
    }
    with pytest.raises(ParseError):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("prob", [0.5, True, None, "1/0"])
def test_parse_bayes_rejects_inexact_prior_entries(prob):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["prior"][0][2] = prob
    with pytest.raises(ParseError):
        parse_bayes(json.dumps(doc))


def test_parse_game_rejects_ragged_payoffs():
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["x", "y"], "B": ["l"]},
        "payoffs": [[[1, 1]]],
    }
    with pytest.raises(ParseError):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("labels", ["xy", 5, {"x": 1}, None])
def test_parse_game_requires_a_list_of_action_labels(labels):
    doc = {
        "players": ["A", "B"],
        "actions": {"A": labels, "B": ["l"]},
        "payoffs": [[[1, 1]], [[0, 0]]],
    }
    with pytest.raises(ParseError, match="actions of player 'A' must be a JSON list"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("labels", ["LR", 5])
def test_parse_bayes_requires_a_list_of_action_labels(labels):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["actions"]["2"] = labels
    with pytest.raises(ParseError, match="actions of player '2' must be a JSON list"):
        parse_bayes(json.dumps(doc))


@pytest.mark.parametrize("players", ["AB", 5, {"A": 1}])
def test_parse_game_requires_a_list_of_players(players):
    doc = {
        "players": players,
        "actions": {"A": ["x"], "B": ["l"]},
        "payoffs": [[[1, 1]]],
    }
    with pytest.raises(ParseError, match="'players' must be a JSON list"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.__setitem__("players", "12"), "'players' must be a JSON list"),
        (lambda doc: doc.__setitem__("players", 5), "'players' must be a JSON list"),
        (lambda doc: doc.__setitem__("thetas", "ab"), "'thetas' must be a JSON list"),
        (lambda doc: doc.__setitem__("thetas", 5), "'thetas' must be a JSON list"),
        (lambda doc: doc["types"].__setitem__("1", "ab"), "types of player '1' must be a JSON list"),
        (lambda doc: doc["types"].__setitem__("1", 5), "types of player '1' must be a JSON list"),
        (lambda doc: doc["prior"][0].__setitem__(1, 5), "must name one type per player"),
        (lambda doc: doc["prior"][0].__setitem__(1, "ab"), "must name one type per player"),
        (lambda doc: doc.__setitem__("prior", 5), "'prior' must be a JSON list"),
    ],
)
def test_parse_bayes_requires_lists_of_labels(edit, message):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    edit(doc)
    with pytest.raises(ParseError, match=message):
        parse_bayes(json.dumps(doc))


BAD_LABELS = [["a"], {"b": 1}, [1], None, True, False, 1.5]


def _game_with_label(place, label):
    doc = {"players": ["A", "B"], "actions": {"A": ["x", "y"], "B": ["l"]}, "payoffs": [[[1, 1]], [[0, 0]]]}
    if place == "players":
        doc["players"][1] = label
    else:
        doc["actions"]["A"][1] = label
    return json.dumps(doc)


def _bayes_with_label(place, label):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    if place == "thetas":
        doc["thetas"].append(label)
    elif place == "types":
        doc["types"]["1"].append(label)
    elif place == "prior theta":
        doc["prior"][0][0] = label
    else:
        doc["prior"][0][1][1] = label
    return json.dumps(doc)


LABEL_PLACES = pytest.mark.parametrize(
    "place, parse, document",
    [
        ("players", parse_game, _game_with_label),
        ("actions", parse_game, _game_with_label),
        ("thetas", parse_bayes, _bayes_with_label),
        ("types", parse_bayes, _bayes_with_label),
        ("prior theta", parse_bayes, _bayes_with_label),
        ("prior type", parse_bayes, _bayes_with_label),
    ],
    ids=["players", "actions", "thetas", "types", "prior theta", "prior type"],
)


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
@LABEL_PLACES
def test_a_label_must_be_a_string_or_an_integer(place, parse, document, label):
    with pytest.raises(ParseError, match=re.escape(f"got the label {json.dumps(label)}")):
        parse(document(place, label))


@pytest.mark.parametrize("label", ["\ud800", "x\udfff", "\udc00\ud800"], ids=ascii)
@LABEL_PLACES
def test_a_label_with_a_lone_surrogate_is_a_parse_error(place, parse, document, label):
    # Valid JSON (an escape of one surrogate code unit), but text no output
    # can encode.
    text = document(place, label)
    assert label not in text and json.dumps(label) in text
    message = f"must encode as UTF-8, got the label {json.dumps(label)}"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)


def test_a_surrogate_pair_escape_is_one_character_of_a_label():
    g = parse_game(_game_with_label("actions", "\U0001f600"))
    assert g.actions[0] == ("x", "\U0001f600")
    assert '"\\ud83d\\ude00"' in serialize_game(g)


def _bayes_text_with_a_second_table(theta):
    text = (FIXTURES / "two_type.bayes.json").read_text()
    zeros = json.dumps([[["0", "0"], ["0", "0"]]] * 2)
    return text.replace('"payoffs": {', f'"payoffs": {{\n    "{theta}": {zeros},', 1)


DUPLICATE_KEYS = [
    ("actions", '{"players": ["A", "B"], "actions": {"A": ["x"], "B": ["l"], "A": ["u", "v"]}, '
                '"payoffs": [[[1, 1]], [[0, 0]]]}', parse_game, "A"),
    ("top level", '{"players": ["A", "B"], "actions": {"A": ["x"], "B": ["l"]}, '
                  '"payoffs": [[[1, 1]]], "players": ["B", "A"]}', parse_game, "players"),
    ("payoffs", _bayes_text_with_a_second_table("th"), parse_bayes, "th"),
    ("types", (FIXTURES / "two_type.bayes.json").read_text().replace(
        '"2": ["t2"]}', '"2": ["t2"], "1": ["t1", "t1p"]}', 1), parse_bayes, "1"),
]


@pytest.mark.parametrize("where, text, parse, key", DUPLICATE_KEYS, ids=[case[0] for case in DUPLICATE_KEYS])
def test_a_key_repeated_in_one_object_is_a_parse_error(where, text, parse, key):
    json.loads(text)  # valid JSON: the standard library keeps the last value
    with pytest.raises(ParseError, match=re.escape(f"key {key!r} appears more than once in one object")):
        parse(text)


def _edited(name, edit):
    doc = json.loads((FIXTURES / name).read_text())
    edit(doc)
    return json.dumps(doc)


GAME_DOC, BAYES_DOC = "prisoners_dilemma.game.json", "two_type.bayes.json"

DOCUMENT_CHECKS = {
    "top level": ("[]", parse_game, "top-level document must be an object"),
    "actions": (
        _edited(GAME_DOC, lambda doc: doc.__setitem__("actions", [["A1", "A2"], ["B1", "B2"]])),
        parse_game,
        "'actions' must map player names to label lists",
    ),
    "types": (
        _edited(BAYES_DOC, lambda doc: doc.__setitem__("types", [["t1", "t1p"], ["t2"]])),
        parse_bayes,
        "'types' must map player names to type label lists",
    ),
    "no action list": (_edited(GAME_DOC, lambda doc: doc["actions"].pop("B")), parse_game, "no action list for player 'B'"),
    "prior entry": (
        _edited(BAYES_DOC, lambda doc: doc["prior"][0].pop()),
        parse_bayes,
        "prior entries are [theta, [types...], probability], got ['th', ['t1', 't2']]",
    ),
    "parameter label": (
        _edited(BAYES_DOC, lambda doc: doc["prior"][1].__setitem__(0, "nope")),
        parse_bayes,
        "unknown parameter label 'nope'",
    ),
    "payoffs": (
        _edited(BAYES_DOC, lambda doc: doc.__setitem__("payoffs", list(doc["payoffs"].values()))),
        parse_bayes,
        "'payoffs' must map parameter labels to payoff tables",
    ),
    "payoff table": (_edited(BAYES_DOC, lambda doc: doc["payoffs"].pop("thp")), parse_bayes, "no payoff table for parameter 'thp'"),
}


@pytest.mark.parametrize("case", DOCUMENT_CHECKS)
def test_every_shape_check_of_a_document_raises_a_parse_error(case):
    text, parse, message = DOCUMENT_CHECKS[case]
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse(text)
    assert type(info.value) is ParseError


def test_integer_labels_keep_their_text():
    doc = {"players": [1, "B"], "actions": {"1": [0, -2], "B": ["l"]}, "payoffs": [[[1, 1]], [[0, 0]]]}
    g = parse_game(json.dumps(doc))
    assert g.players == ("1", "B")
    assert g.actions == (("0", "-2"), ("l",))


def test_integer_parameter_and_type_labels_are_read_in_the_prior(two_type_bayes):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["thetas"] = [1, 2]
    doc["payoffs"] = {"1": doc["payoffs"]["th"], "2": doc["payoffs"]["thp"]}
    doc["types"] = {"1": [1, 2], "2": [3]}
    doc["prior"] = [[1, [1, 3], "1/2"], [2, [2, "3"], "1/2"]]
    bg = parse_bayes(json.dumps(doc))
    assert bg.thetas == ("1", "2")
    assert bg.types == (("1", "2"), ("3",))
    assert bg.prior == two_type_bayes.prior
    assert bg.games == two_type_bayes.games


def test_parse_bayes_round_values(two_type_bayes):
    assert two_type_bayes.prior == {
        (0, (0, 0)): Fraction(1, 2),
        (1, (1, 0)): Fraction(1, 2),
    }
    assert two_type_bayes.thetas == ("th", "thp")


def test_parse_bayes_unknown_type():
    text = (FIXTURES / "two_type.bayes.json").read_text()
    doc = json.loads(text)
    doc["prior"][0][1][0] = "nope"
    with pytest.raises(ParseError):
        parse_bayes(json.dumps(doc))


def test_export_dot_deterministic(bos):
    graph = build_periodicity_graph(bos)
    cycles = enumerate_cycles(graph, Node(0, 0), max_len=4)
    first = export_dot(graph, bos, cycles)
    second = export_dot(graph, bos, cycles)
    assert first == second
    assert first.startswith("digraph periodicity {")
    assert '"A:a1" -> "B:b1"' in first
    assert "color=red" in first


def test_export_dot_marks_degenerate_nodes():
    flat = parse_game(
        json.dumps(
            {
                "players": ["A", "B"],
                "actions": {"A": ["x", "y"], "B": ["l", "r"]},
                "payoffs": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            }
        )
    )
    graph = build_periodicity_graph(flat)
    assert "style=dashed" in export_dot(graph, flat)


# A DOT quoted string: any character but a double quote or a backslash,
# or a backslash and the character it escapes.
DOT_STRING = r'"((?:[^"\\]|\\.)*)"'
DOT_NODE = re.compile(rf"  {DOT_STRING} \[label={DOT_STRING}(?:, [a-z]+=[a-z0-9]+)*\];")
DOT_EDGE = re.compile(rf"  {DOT_STRING} -> {DOT_STRING} \[label={DOT_STRING}(?:, [a-z]+=[a-z0-9]+)*\];")


def _dot_text(quoted):
    return re.sub(r"\\(.)", r"\1", quoted)


def test_export_dot_escapes_quotes_and_backslashes_in_labels():
    labels = {"A": ['x"y', "z\\w"], 'B"\\': ['"', "\\"]}
    g = parse_game(
        json.dumps(
            {
                "players": list(labels),
                "actions": labels,
                "payoffs": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            }
        )
    )
    graph = build_periodicity_graph(g)
    lines = export_dot(graph, g, enumerate_cycles(graph, Node(0, 0), max_len=4)).splitlines()
    assert lines[0] == "digraph periodicity {" and lines[-1] == "}"
    ids = {f"{p}:{a}" for p, actions in labels.items() for a in actions}
    nodes = [DOT_NODE.fullmatch(line) for line in lines[1:5]]
    assert all(nodes), lines
    assert {_dot_text(m[1]) for m in nodes} == ids
    assert all(m[1] == m[2] for m in nodes)
    edges = [DOT_EDGE.fullmatch(line) for line in lines[5:-1]]
    assert len(edges) == 4 and all(edges), lines
    for m in edges:
        assert {_dot_text(m[1]), _dot_text(m[2])} <= ids
        assert _dot_text(m[3]) == _dot_text(m[2]).rpartition(":")[0]


def test_dump_report_renders_fractions():
    doc = json.loads(dump_report({"value": Fraction(1, 3), "set": frozenset({2, 1}), "ints": {10, 1, 5}}))
    assert doc == {"value": "1/3", "set": [1, 2], "ints": [1, 5, 10]}


def test_dump_report_sorts_a_set_of_fractions_by_value_and_refuses_other_objects():
    assert json.loads(dump_report({"set": {Fraction(1, 2), Fraction(1, 3), Fraction(-2)}})) == {
        "set": ["-2", "1/3", "1/2"]
    }
    with pytest.raises(TypeError, match="report value of type object"):
        dump_report({"x": object()})


def _stdlib_report(report):
    """The standard library's text for a machine report."""

    def jsonable(value):
        return str(value) if isinstance(value, Fraction) else sorted(value)

    return json.dumps(report, indent=2, sort_keys=True, default=jsonable) + "\n"


def _stdlib_game(g):
    """The standard library's text for a game document."""
    tensor = [[str(v) for v in vec] for vec in g.payoffs]
    for size in reversed(g.shape):
        tensor = [tensor[k:k + size] for k in range(0, len(tensor), size)]
    doc = {
        "players": list(g.players),
        "actions": {p: list(acts) for p, acts in zip(g.players, g.actions)},
        "payoffs": tensor[0],
    }
    return json.dumps(doc, indent=2) + "\n"


# Quotes, backslashes, control characters, non-ASCII, astral characters
# (written as surrogate pairs), a lone surrogate and the empty string.
HOSTILE_LABELS = ['say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "na\u00efve \u20ac", "clef \U0001d11e \U0001f600", "\ud800", ""]


def test_machine_reports_match_the_standard_library_on_hostile_values():
    report = {
        "labels": HOSTILE_LABELS,
        "by label": {label: [k, -k, str(k)] for k, label in enumerate(HOSTILE_LABELS)},
        "empty": [[], {}, (), ""],
        "empty list": [],
        "empty object": {},
        "sets": [{3, 1, 2}, frozenset({Fraction(1, 2), Fraction(-1)}), {frozenset({1, 2}), frozenset({1})}, set()],
        "ints": [-1, 0, 2**64, 2**64 + 1, -(2**70), 10**40],
        "constants": [True, False, None, [None], {"t": True}],
        "fractions": [Fraction(1, 3), Fraction(-7), Fraction(0), Fraction(10**30, 7)],
        "mixed": [Fraction(1, 2), "1/2", 1, True, None, [Fraction(3)], ("a",)],
        "tuples": (1, ("a", ()), ({"k": ()},)),
    }
    assert dump_report(report) == _stdlib_report(report)
    for label in HOSTILE_LABELS:
        assert dump_report({label: label}) == _stdlib_report({label: label})


def test_lists_of_label_rows_match_the_standard_library():
    # Rows of strings are joined one row at a time; a row that is empty, or
    # holds anything but strings, takes the general path.
    rows = [HOSTILE_LABELS, ["A:a1", "B:b1"], ("t", "u"), ['"', "\\", "\u00e9\u20ac"], ["%s", "%%"]]
    reports = [
        {"cycles": rows, "one": [["x"]], "nested": [[rows, rows[1]], rows]},
        {"cycles": [["a"], [], ["b"]], "tuples": (("a", "b"), ("c",)), "empty": [(), []]},
        {"mixed": [["a"], ["b", 1], [Fraction(1, 2)], ["c", None]], "dicts": [{"k": ["v"]}, ["w"]]},
        [["A:a1", "B:b2", "C:c1"], ("A:a2", "B:b1")],
    ]
    for report in reports:
        for sort_keys in (True, False):
            assert _dumps(report, sort_keys) == json.dumps(report, indent=2, sort_keys=sort_keys, default=str)


def test_game_documents_match_the_standard_library_on_hostile_labels(two_type_bayes):
    labels = HOSTILE_LABELS
    g = Game(
        players=tuple(labels[:3]),
        actions=(tuple(labels[3:5]), tuple(labels[5:]), ("",)),
        payoffs=tuple(
            (Fraction(k, 3), Fraction(-(2**70) - k), Fraction(k * k, 7)) for k in range(4)
        ),
    )
    assert serialize_game(g) == _stdlib_game(g)
    # Companion games name a strategy by JSON text when labels collide.
    colliding = parse_bayes(colliding_strategies_bayes())
    for companion in (ex_ante_game(colliding), interim_game(colliding), ex_ante_game(two_type_bayes)):
        assert serialize_game(companion) == _stdlib_game(companion)
    assert '"[\\"a\\",\\"aa\\"]"' in serialize_game(ex_ante_game(colliding))


def one_action_games(rng, count):
    """Seeded games of 2-4 players with 1-3 actions each, one action half
    the time, and payoffs k/s for k in [-12, 12], each player over its own
    scale s in [1, 4]."""
    games = []
    for _ in range(count):
        n = rng.randint(2, 4)
        shape = [max(1, rng.randint(0, 3)) for _ in range(n)]
        vectors = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(math.prod(shape))]
        scales = [rng.randint(1, 4) for _ in range(n)]
        actions = [[f"s{k + 1}" for k in range(size)] for size in shape]
        games.append(Game._from_integers([f"P{i + 1}" for i in range(n)], actions, list(zip(*vectors)), scales))
    return games


def test_game_documents_match_the_standard_library():
    games = [parse_game(path.read_text()) for path in sorted(FIXTURES.glob("*.game.json"))]
    rng = random.Random(24)
    games += one_action_games(rng, 40) + [random_rational_game(rng) for _ in range(10)]
    assert sum(1 in g.shape for g in games) > 20
    bayes = [parse_bayes(path.read_text()) for path in sorted(FIXTURES.glob("*.bayes.json"))]
    bayes += [parse_bayes(colliding_strategies_bayes()), parse_bayes(colliding_pairs_bayes())]
    games += [build(bg) for bg in bayes for build in (ex_ante_game, interim_game, interim_correlated_game)]
    n = MAX_NESTING - 2
    games.append(Game(tuple(f"p{k}" for k in range(n)), (("a",),) * n, (tuple(Fraction(k, 3) for k in range(n)),)))
    for g in games:
        assert serialize_game(g) == _stdlib_game(g)


@pytest.mark.parametrize(
    "report, message",
    [
        ({"x": object()}, "report value of type object"),
        ({"x": [Fraction(1, 2), 0.5]}, "report value of type float"),
        ({"x": 1e300}, "report value of type float"),
        ({1: "a"}, "report key of type int"),
        ({"x": [{None: 2}]}, "report key of type NoneType"),
        ({"y": 1, 2: 2}, "not supported between"),
        ({"x": {(1, 2): 3}}, "report key of type tuple"),
    ],
)
def test_a_report_value_or_key_with_no_json_form_is_a_type_error(report, message):
    with pytest.raises(TypeError, match=message):
        dump_report(report)


def _nested_text(levels, first_indent, leaves):
    """The text of ``levels`` nested lists, the outermost opened at indent
    ``first_indent - 1`` and the innermost holding ``leaves`` (JSON texts)."""
    opening = "[" + "".join("\n" + "  " * depth + "[" for depth in range(first_indent, first_indent + levels - 1))
    inner = "  " * (first_indent + levels - 1)
    items = ",".join("\n" + inner + leaf for leaf in leaves)
    closing = "".join("\n" + "  " * depth + "]" for depth in reversed(range(first_indent - 1, first_indent + levels - 1)))
    return opening + items + closing


def test_writers_take_documents_deeper_than_the_recursion_limit():
    # json.dumps itself raises RecursionError on both.
    levels = 3000
    deep = ["leaf", 0]
    for _ in range(levels - 1):
        deep = [deep]
    report = {"deep": deep, "z": None}
    expected = '{\n  "deep": ' + _nested_text(levels, 2, ['"leaf"', "0"]) + ',\n  "z": null\n}\n'
    assert dump_report(report) == expected

    # The most one-action players a game document has: the payoffs nest
    # that many lists around one vector.
    n = MAX_NESTING - 2
    g = Game(
        players=tuple(f"p{k}" for k in range(n)),
        actions=(("a",),) * n,
        payoffs=(tuple(Fraction(k, 2) for k in range(n)),),
    )
    players = ",".join(f'\n    "p{k}"' for k in range(n))
    actions = ",".join(f'\n    "p{k}": [\n      "a"\n    ]' for k in range(n))
    payoffs = _nested_text(n + 1, 2, [f'"{Fraction(k, 2)}"' for k in range(n)])
    expected = (
        '{\n  "players": [' + players + '\n  ],\n  "actions": {' + actions + '\n  },\n'
        '  "payoffs": ' + payoffs + "\n}\n"
    )
    assert serialize_game(g) == expected


@pytest.mark.parametrize("n", [MAX_NESTING - 1, 1200])
def test_a_game_document_too_deep_to_read_back_is_a_size_limit(n, monkeypatch):
    g = Game(tuple(f"p{k}" for k in range(n)), (("a",),) * n, ((Fraction(1, 2),) * n,))
    monkeypatch.setattr("periodic_games.io.format_fraction", None)  # nothing is formatted
    with pytest.raises(SizeLimit, match=f"nested {n + 2} levels deep"):
        serialize_game(g)


def test_a_game_document_at_the_nesting_bound_reads_back():
    n = MAX_NESTING - 2
    g = Game(tuple(f"p{k}" for k in range(n)), (("a",),) * n, ((Fraction(1, 2),) * n,))
    assert parse_game(serialize_game(g)) == g


def test_a_value_too_long_to_print_is_a_size_limit():
    assert format_fraction(Fraction(-10**4000 - 1, 3)) == "-" + "1" + "0" * 3999 + "1/3"
    for value in (Fraction(10**4300), Fraction(1, 10**4300), Fraction(-(10**5000) - 1, 7)):
        with pytest.raises(SizeLimit):
            format_fraction(value)


# Deep documents are written as strings, because json.dumps itself recurses.
def deep_payoffs_game(levels):
    """A 2x2 game whose payoffs are ``levels`` nested empty lists."""
    actions = '{"A": ["x", "y"], "B": ["l", "r"]}'
    return f'{{"players": ["A", "B"], "actions": {actions}, "payoffs": {"[" * levels}{"]" * levels}}}'


def one_action_game(players):
    """A game of ``players`` players with one action each: its payoffs nest
    ``players + 1`` lists inside the top-level object."""
    names = ", ".join(f'"p{k}"' for k in range(players))
    actions = ", ".join(f'"p{k}": ["a"]' for k in range(players))
    vector = "[" + ", ".join(['"0"'] * players) + "]"
    return f'{{"players": [{names}], "actions": {{{actions}}}, "payoffs": {"[" * players}{vector}{"]" * players}}}'


def deep_prior_bayes(levels):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc["prior"] = "DEEP"
    return json.dumps(doc).replace('"DEEP"', "[" * levels + "]" * levels)


@pytest.mark.parametrize(
    "text",
    [deep_payoffs_game(1200), deep_payoffs_game(100_000), one_action_game(985), one_action_game(MAX_NESTING - 1)],
    ids=["1200-levels", "100000-levels", "985-players", "just-too-many-players"],
)
def test_parse_game_bounds_the_nesting_depth(text):
    with pytest.raises(ParseError, match=f"nests lists and objects deeper than {MAX_NESTING} levels"):
        parse_game(text)


def test_parse_game_reads_a_document_at_the_nesting_bound():
    g = parse_game(one_action_game(MAX_NESTING - 2))
    assert g.num_players == MAX_NESTING - 2 and g.payoffs == ((Fraction(0),) * (MAX_NESTING - 2),)


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_the_nesting_bound_counts_containers_down_to_a_list_of_strings(depth):
    # The top-level object, then one object and lists down to a list of
    # strings, with leaves beside the containers at every other level.
    inner = ["a", "b"]
    for k in range(depth - 2):
        inner = {"x": inner, "y": 1} if k == 5 else [inner, str(k)] if k % 2 else [inner]
    text = json.dumps({"deep": inner, "flat": ["c", 0, None], "n": 1})
    if depth <= MAX_NESTING:
        assert _load_json(text) == json.loads(text)
    else:
        with pytest.raises(ParseError, match=f"nests lists and objects deeper than {MAX_NESTING} levels"):
            _load_json(text)


@pytest.mark.parametrize("levels", [MAX_NESTING, 1200])
def test_parse_bayes_bounds_the_nesting_depth(levels):
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
        parse_bayes(deep_prior_bayes(levels))
