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
from .game import Game, parse_fraction
from .periodicity import Cycle, Node, PeriodicityGraph

# Lists and objects nested deeper than this are a ParseError. A game's
# payoffs nest one level per player plus one, so only documents with
# absurdly many players come near it, while the recursive readers and
# writers here stay far from the interpreter's recursion limit.
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


def _parse_actions(doc: dict, players: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    actions_doc = _require(doc, "actions")
    if not isinstance(actions_doc, dict):
        raise ParseError("'actions' must map player names to label lists")
    out = []
    for p in players:
        if p not in actions_doc:
            raise ParseError(f"no action list for player {p!r}")
        out.append(_labels(actions_doc[p], f"actions of player {p!r}"))
    return tuple(out)


def _parse_tensor(node, shape: Sequence[int], n: int, path=()) -> list:
    """Nested payoff arrays to a flat row-major list of payoff vectors."""
    if not shape:
        if not isinstance(node, list) or len(node) != n:
            raise ParseError(f"payoff vector at {path} must be a list of {n} entries")
        return [tuple(parse_fraction(v) for v in node)]
    if not isinstance(node, list) or len(node) != shape[0]:
        raise ParseError(f"expected {shape[0]} entries at {path or 'payoffs root'}")
    flat = []
    for k, child in enumerate(node):
        flat.extend(_parse_tensor(child, shape[1:], n, path + (k,)))
    return flat


def parse_game(text: str) -> Game:
    """Parse a game document; the Game validates itself."""
    doc = _load_json(text)
    players = _labels(_require(doc, "players"), "'players'")
    actions = _parse_actions(doc, players)
    shape = [len(a) for a in actions]
    flat = _parse_tensor(_require(doc, "payoffs"), shape, len(players))
    return Game(players=players, actions=actions, payoffs=tuple(flat))


def _tensor_doc(g: Game) -> list:
    def build(prefix: tuple[int, ...]):
        depth = len(prefix)
        if depth == g.num_players:
            return [format_fraction(v) for v in g.payoffs[g.profile_index(prefix)]]
        return [build(prefix + (k,)) for k in range(g.shape[depth])]

    return build(())


def serialize_game(g: Game) -> str:
    doc = {
        "players": list(g.players),
        "actions": {p: list(acts) for p, acts in zip(g.players, g.actions)},
        "payoffs": _tensor_doc(g),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_bayes(text: str) -> BayesianGame:
    """Parse a Bayesian game document, one Game per parameter value; the
    games and the BayesianGame validate themselves."""
    doc = _load_json(text)
    players = _labels(_require(doc, "players"), "'players'")
    actions = _parse_actions(doc, players)
    thetas = _labels(_require(doc, "thetas"), "'thetas'")
    types_doc = _require(doc, "types")
    if not isinstance(types_doc, dict):
        raise ParseError("'types' must map player names to type label lists")
    types = []
    for p in players:
        if p not in types_doc:
            raise ParseError(f"no type list for player {p!r}")
        types.append(_labels(types_doc[p], f"types of player {p!r}"))
    types = tuple(types)

    prior: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    prior_doc = _require(doc, "prior")
    if not isinstance(prior_doc, list):
        raise ParseError(f"'prior' must be a JSON list of entries, got {prior_doc!r}")
    for entry in prior_doc:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"prior entries are [theta, [types...], probability], got {entry!r}")
        theta_label, type_labels, prob = entry
        if theta_label not in thetas:
            raise ParseError(f"unknown parameter label {theta_label!r}")
        theta = thetas.index(theta_label)
        if not isinstance(type_labels, list) or len(type_labels) != len(players):
            raise ParseError(f"type profile {type_labels!r} must name one type per player")
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
    shape = [len(a) for a in actions]
    games = []
    for label in thetas:
        if label not in payoffs_doc:
            raise ParseError(f"no payoff table for parameter {label!r}")
        flat = _parse_tensor(payoffs_doc[label], shape, len(players))
        games.append(Game(players=players, actions=actions, payoffs=tuple(flat)))
    return BayesianGame(thetas=thetas, types=types, prior=prior, games=tuple(games))


def node_id(g: Game, node: Node) -> str:
    return f"{g.players[node.player]}:{g.actions[node.player][node.action]}"


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
    lines = ["digraph periodicity {"]
    for node in sorted(graph.nodes):
        attrs = f'label="{node_id(g, node)}"'
        if node in highlighted_nodes:
            attrs += ", color=red, penwidth=2"
        if node in graph.degenerate_flags:
            attrs += ", style=dashed"
        lines.append(f'  "{node_id(g, node)}" [{attrs}];')
    for node in sorted(graph.nodes):
        for j in sorted(graph.edges[node]):
            target = graph.edges[node][j]
            attrs = f'label="{g.players[j]}"'
            if (node, target) in highlighted_edges:
                attrs += ", color=red, penwidth=2"
            lines.append(f'  "{node_id(g, node)}" -> "{node_id(g, target)}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_jsonable(value):
    """Recursively render Fractions as strings for machine reports."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(to_jsonable(v) for v in value)
    return value


def dump_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
