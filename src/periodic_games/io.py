"""Game and Bayesian-game file formats, DOT export, and report documents.

Files are JSON with payoffs written as strings ("3", "-1/2", "0.25") so
fractions survive the round trip exactly. Serialization is deterministic:
identical inputs produce byte-identical output, the text of ``json.dumps``
with ``indent=2`` (reports with sorted keys). Machine reports and the head of
a game document (players and actions) are written by one writer, ``_dumps``,
from an explicit stack rather than the recursive pure-Python encoder
``indent`` selects; a list of strings or of Fractions is written as one
join. A game document's payoffs are nested level by level, one join per
list, from one text per payoff object.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .bayes import BayesianGame
from .errors import ParseError, SizeLimit
from .game import Game, make_game, parse_fraction
from .periodicity import Cycle, Node, PeriodicityGraph

# Lists and objects nested deeper than this are a ParseError: a bound on
# the input, checked level by level after decoding. A game's payoffs nest
# one level per player plus one, so only documents with absurdly many
# players come near it. No reader or writer here recurses; only the JSON
# decoder does, and this bound keeps what it decodes far from the
# interpreter's recursion limit. A report nests as deep as its value; a game
# document deeper than this is a SizeLimit, so every one written reads back.
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
    """The document of ``g``, as ``json.dumps(doc, indent=2)`` writes it: the
    top-level object, one list per player and the payoff vectors. Past
    ``MAX_NESTING`` levels, a SizeLimit raised before anything is formatted."""
    n = g.num_players
    if n + 2 > MAX_NESTING:
        raise SizeLimit(f"a game of {n} players makes a document nested {n + 2} levels deep")
    # One quoted text per Fraction object, keyed by id, as a Fraction hashes in
    # Python (a built or parsed game shares one object per value).
    flat = list(chain.from_iterable(g.payoffs))
    ids = list(map(id, flat))
    texts = {k: '"' + format_fraction(v) + '"' for k, v in dict(zip(ids, flat)).items()}
    items = list(map(texts.__getitem__, ids))
    # The row-major texts, cut into vectors and runs of each axis size,
    # innermost first: each cut writes its containers, one join each, at
    # their depth (the vectors at n + 2, the payoffs list at 2).
    for depth, size in zip(range(n + 2, 1, -1), (n, *reversed(g.shape))):
        pad = "\n" + "  " * depth
        container = "[" + pad + "%s\n" + "  " * (depth - 1) + "]"
        items = list(map(container.__mod__, map(("," + pad).join, zip(*[iter(items)] * size))))
    head = _dumps({"players": list(g.players), "actions": dict(zip(g.players, map(list, g.actions)))}, sort_keys=False)
    # The head's closing line "\n}" makes way for the payoffs.
    return head[:-2] + ',\n  "payoffs": ' + items[0] + "\n}\n"


def _first_indices(labels: Sequence[str]) -> dict[str, int]:
    """Each label's index, the first one for a duplicate, as ``tuple.index``
    gives; ``BayesianGame`` rejects the duplicate itself."""
    index: dict[str, int] = {}
    for k, label in enumerate(labels):
        index.setdefault(label, k)
    return index


def parse_bayes(text: str) -> BayesianGame:
    """Parse a Bayesian game document, one Game per parameter value, each
    read by ``make_game``; the BayesianGame validates itself."""
    doc = _load_json(text)
    players = _labels(_require(doc, "players"), "'players'")
    actions = _label_map(doc, "actions", players, "action", "label lists")
    thetas = _labels(_require(doc, "thetas"), "'thetas'")
    types = _label_map(doc, "types", players, "type", "type label lists")

    theta_index = _first_indices(thetas)
    type_index = [_first_indices(labels) for labels in types]
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
        if theta_label not in theta_index:
            raise ParseError(f"unknown parameter label {theta_label!r}")
        tp = []
        for i, label in enumerate(type_labels):
            if label not in type_index[i]:
                raise ParseError(f"unknown type {label!r} for player {players[i]!r}")
            tp.append(type_index[i][label])
        key = (theta_index[theta_label], tuple(tp))
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
        for target in graph.edges[node]:
            attrs = f"label={players[target.player]}"
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


_END = object()  # marks an open container with no child left


def _dumps(value, sort_keys: bool) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys,
    default=_report_value)`` for a tree of the report types (``str``,
    ``int``, ``bool``, ``None``, lists, tuples and dicts keyed by ``str``),
    written from an explicit stack of open containers, so a value of any
    depth is written. A list holding only strings, or only Fractions, is
    written as one join. Any other value goes through ``_report_value``, and
    a key that is not a string is a TypeError."""
    out = []
    pads = ["\n"]  # pads[d]: a line break and the indentation of depth d
    stack = []  # per open container: [children, text before the next child, separator, closing, keyed]
    text = ""  # what precedes ``value`` in the output
    while True:
        if isinstance(value, (list, tuple, dict)):
            keyed = isinstance(value, dict)
            if not value:
                out.append(text + ("{}" if keyed else "[]"))
            else:
                depth = len(stack) + 1
                if depth == len(pads):
                    pads.append(pads[-1] + "  ")
                indent = pads[depth]
                closing = pads[depth - 1] + ("}" if keyed else "]")
                kinds = () if keyed else set(map(type, value))
                if kinds == {str}:
                    items = ("," + indent).join(map(encode_basestring_ascii, value))
                    out.append(text + "[" + indent + items + closing)
                elif kinds == {Fraction}:
                    items = ('",' + indent + '"').join(map(format_fraction, value))
                    out.append(text + "[" + indent + '"' + items + '"' + closing)
                else:
                    children = iter((sorted(value.items()) if sort_keys else value.items()) if keyed else value)
                    stack.append([children, indent, "," + indent, closing, keyed])
                    out.append(text + ("{" if keyed else "["))
        elif isinstance(value, str):
            out.append(text + encode_basestring_ascii(value))
        elif value is None:
            out.append(text + "null")
        elif value is True or value is False:
            out.append(text + ("true" if value else "false"))
        elif isinstance(value, int):
            out.append(text + int.__repr__(value))
        else:
            value = _report_value(value)
            continue
        # The next value is the next child of the innermost open container.
        while stack:
            frame = stack[-1]
            child = next(frame[0], _END)
            if child is not _END:
                break
            out.append(frame[3])
            stack.pop()
        else:
            return "".join(out)
        text = frame[1]
        frame[1] = frame[2]
        if frame[4]:
            key, value = child
            if not isinstance(key, str):
                raise TypeError(f"a report key of type {type(key).__name__} is not a string")
            text += encode_basestring_ascii(key) + ": "
        else:
            value = child


def dump_report(report: dict) -> str:
    return _dumps(report, sort_keys=True) + "\n"
