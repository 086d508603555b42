import json
import math
import random
import re
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

from conftest import FIXTURES, colliding_pairs_bayes, colliding_strategies_bayes, random_rational_game


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
        games.append(Game._from_integers([f"P{i + 1}" for i in range(n)], actions, vectors, scales))
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


@pytest.mark.parametrize("levels", [MAX_NESTING, 1200])
def test_parse_bayes_bounds_the_nesting_depth(levels):
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
        parse_bayes(deep_prior_bayes(levels))
