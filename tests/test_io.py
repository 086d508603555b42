import json
import re
import time
from fractions import Fraction

import pytest

from periodic_games import build_periodicity_graph, enumerate_cycles, export_dot
from periodic_games.errors import BadLiteral, ParseError, SizeLimit
from periodic_games.game import MAX_LITERAL_DIGITS
from periodic_games.io import (
    MAX_NESTING,
    dump_report,
    format_fraction,
    parse_bayes,
    parse_fraction,
    parse_game,
    serialize_game,
)
from periodic_games.periodicity import Node

from conftest import FIXTURES


def test_parse_fraction():
    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction("-7/2") == Fraction(-7, 2)
    assert parse_fraction(4) == Fraction(4)


def test_parse_fraction_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        parse_fraction(0.5)
    with pytest.raises(ParseError):
        parse_fraction(True)
    with pytest.raises(ParseError):
        parse_fraction("1/0")
    with pytest.raises(ParseError):
        parse_fraction("abc")


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "2.5E+3000000", "1" * (MAX_LITERAL_DIGITS + 1)])
def test_parse_fraction_bounds_a_literal_before_any_power_of_ten(text):
    start = time.perf_counter()
    with pytest.raises(BadLiteral, match=f"more than {MAX_LITERAL_DIGITS} digits"):
        parse_fraction(text)
    assert time.perf_counter() - start < 0.5


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


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
@pytest.mark.parametrize(
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
def test_a_label_must_be_a_string_or_an_integer(place, parse, document, label):
    with pytest.raises(ParseError, match=re.escape(f"got the label {json.dumps(label)}")):
        parse(document(place, label))


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


@pytest.mark.parametrize("levels", [MAX_NESTING, 1200])
def test_parse_bayes_bounds_the_nesting_depth(levels):
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
        parse_bayes(deep_prior_bayes(levels))
