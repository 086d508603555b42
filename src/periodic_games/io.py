"""Game and Bayesian-game file formats, DOT export, and report documents.

Files are JSON with payoffs written as strings ("3", "-1/2", "0.25") so
fractions survive the round trip exactly. Serialization is deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .bayes import BayesianGame
from .errors import ParseError, SizeLimit
from .game import Game, make_game, parse_fraction
from .periodicity import Cycle, Node, PeriodicityGraph

# Lists and objects nested deeper than this are a ParseError: a bound on
# the input, checked level by level after decoding. A game's payoffs nest
# one level per player plus one, so only documents with absurdly many
# players come near it. No reader or writer here recurses; only the JSON
# decoder and encoder do, and this bound keeps them far from the
# interpreter's recursion limit.
MAX_NESTING = 100


def format_fraction(value: Fraction) -> str:
    """The one way a value is printed: ``str(value)``, or SizeLimit when a
    numerator or denominator has more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``)."""
    try:
        return str(value)
    except ValueError:
        raise SizeLimit(
            f"a computed value has more than {sys.get_int_max_str_digits()} digits"
            " in its numerator or denominator, too long to print"
        ) from None


def _too_deep() -> ParseError:
    return ParseError(f"document nests lists and objects deeper than {MAX_NESTING} levels")


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError as exc:  # a bare integer past the int-string conversion limit
        raise ParseError(f"number too long: {exc}") from None
    except RecursionError:  # the decoder recursed past the interpreter's limit
        raise _too_deep() from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    level = [doc]  # the containers at one depth, walked without recursion
    for _ in range(MAX_NESTING):
        level = [
            child
            for node in level
            for child in (node.values() if isinstance(node, dict) else node)
            if isinstance(child, (dict, list))
        ]
        if not level:
            return doc
    raise _too_deep()


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}")
    return doc[key]


def _labels(value, what: str) -> tuple[str, ...]:
    """A JSON list of labels, each a string or an integer (kept as its
    text); anything else, there or in place of the list, is a ParseError."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list, got {value!r}")
    for v in value:
        if not isinstance(v, (str, int)) or isinstance(v, bool):
            raise ParseError(f"{what} must be strings or integers, got the label {json.dumps(v)}")
    return tuple(str(v) for v in value)


def _label_map(
    doc: dict, key: str, players: Sequence[str], noun: str, lists: str
) -> tuple[tuple[str, ...], ...]:
    """The label list of each player under ``doc[key]``, a JSON object
    keyed by player name (``actions`` and ``types``)."""
    value = _require(doc, key)
    if not isinstance(value, dict):
        raise ParseError(f"{key!r} must map player names to {lists}")
    out = []
    for p in players:
        if p not in value:
            raise ParseError(f"no {noun} list for player {p!r}")
        out.append(_labels(value[p], f"{key} of player {p!r}"))
    return tuple(out)


def parse_game(text: str) -> Game:
    """Parse a game document; ``make_game`` reads its payoff table."""
    doc = _load_json(text)
    players = _labels(_require(doc, "players"), "'players'")
    actions = _label_map(doc, "actions", players, "action", "label lists")
    return make_game(players, actions, _require(doc, "payoffs"))


def serialize_game(g: Game) -> str:
    # The row-major payoff vectors, cut into runs of each axis size from
    # the innermost axis out, nest as the document does.
    tensor = [[format_fraction(v) for v in vec] for vec in g.payoffs]
    for size in reversed(g.shape):
        tensor = [tensor[k:k + size] for k in range(0, len(tensor), size)]
    doc = {
        "players": list(g.players),
        "actions": {p: list(acts) for p, acts in zip(g.players, g.actions)},
        "payoffs": tensor[0],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_bayes(text: str) -> BayesianGame:
    """Parse a Bayesian game document, one Game per parameter value, each
    read by ``make_game``; the BayesianGame validates itself."""
    doc = _load_json(text)
    players = _labels(_require(doc, "players"), "'players'")
    actions = _label_map(doc, "actions", players, "action", "label lists")
    thetas = _labels(_require(doc, "thetas"), "'thetas'")
    types = _label_map(doc, "types", players, "type", "type label lists")

    prior: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    prior_doc = _require(doc, "prior")
    if not isinstance(prior_doc, list):
        raise ParseError(f"'prior' must be a JSON list of entries, got {prior_doc!r}")
    for entry in prior_doc:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"prior entries are [theta, [types...], probability], got {entry!r}")
        theta_label, type_labels, prob = entry
        if not isinstance(type_labels, list) or len(type_labels) != len(players):
            raise ParseError(f"type profile {type_labels!r} must name one type per player")
        # A reference is read as the labels it names are: text as is, an integer as its text.
        theta_label, *type_labels = _labels([theta_label, *type_labels], "prior references")
        if theta_label not in thetas:
            raise ParseError(f"unknown parameter label {theta_label!r}")
        theta = thetas.index(theta_label)
        tp = []
        for i, label in enumerate(type_labels):
            if label not in types[i]:
                raise ParseError(f"unknown type {label!r} for player {players[i]!r}")
            tp.append(types[i].index(label))
        key = (theta, tuple(tp))
        prior[key] = prior.get(key, Fraction(0)) + parse_fraction(prob)

    payoffs_doc = _require(doc, "payoffs")
    if not isinstance(payoffs_doc, dict):
        raise ParseError("'payoffs' must map parameter labels to payoff tables")
    games = []
    for label in thetas:
        if label not in payoffs_doc:
            raise ParseError(f"no payoff table for parameter {label!r}")
        games.append(make_game(players, actions, payoffs_doc[label]))
    return BayesianGame(thetas=thetas, types=types, prior=prior, games=tuple(games))


def node_id(g: Game, node: Node) -> str:
    return f"{g.players[node.player]}:{g.actions[node.player][node.action]}"


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and double quotes
    escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    graph: PeriodicityGraph, g: Game, highlight: Iterable[Cycle] = ()
) -> str:
    """Deterministic DOT rendering; highlighted cycle edges are drawn bold red."""
    highlighted_edges = set()
    highlighted_nodes = set()
    for cycle in highlight:
        for k, node in enumerate(cycle.nodes):
            nxt = cycle.nodes[(k + 1) % len(cycle.nodes)]
            highlighted_edges.add((node, nxt))
            highlighted_nodes.add(node)
    nodes = sorted(graph.nodes)
    ids = {node: _dot_string(node_id(g, node)) for node in nodes}
    players = [_dot_string(p) for p in g.players]
    lines = ["digraph periodicity {"]
    for node in nodes:
        attrs = f"label={ids[node]}"
        if node in highlighted_nodes:
            attrs += ", color=red, penwidth=2"
        if node in graph.degenerate_flags:
            attrs += ", style=dashed"
        lines.append(f"  {ids[node]} [{attrs}];")
    for node in nodes:
        for j in sorted(graph.edges[node]):
            target = graph.edges[node][j]
            attrs = f"label={players[j]}"
            if (node, target) in highlighted_edges:
                attrs += ", color=red, penwidth=2"
            lines.append(f"  {ids[node]} -> {ids[target]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _report_value(value):
    """What a machine report writes for a value JSON has no form of: a
    Fraction as ``format_fraction`` prints it, a set as a sorted list."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    raise TypeError(f"a report value of type {type(value).__name__} has no JSON form")


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_report_value) + "\n"
