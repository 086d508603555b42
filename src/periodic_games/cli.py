"""Batch command-line interface.

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 degenerate
argmax under the strict tie policy.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import __version__
from .coco import coco_solution
from .errors import CertificateError, DegenerateArgmax, GameError, IndexOutOfRange, ParseError, ValidationError
from .game import Game
from .generate import random_game
from .io import (
    _ratio_text,
    dump_report,
    export_dot,
    format_fraction,
    node_id,
    parse_bayes,
    parse_game,
    serialize_game,
)
from .mixed import invariance_check, nash_support_enumeration, periodic_mixed
from .bayes import ex_ante_game, interim_correlated_game, interim_game
from .errors import Infeasible
from .periodicity import (
    TiePolicy,
    all_cycles,
    build_periodicity_graph,
    enumerate_cycles,
    periodic_actions,
    reach_cycle,
)
from .rationalizability import DominanceMode, iesds, rationalizable_periodic, type_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """Argument type of an integer of at least ``low``: a cycle has two edges
    or more (``--max-len``), a sweep checks one game or more (``--count``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _base_report(args) -> dict:
    # mixed, nash and coco take no tie policy; their reports keep the default.
    return {
        "tool_version": __version__,
        "command": args.command,
        "tie_policy": getattr(args, "tie_policy", "lex"),
    }


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.format == "machine":
        sys.stdout.write(dump_report(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _strs(values) -> list[str]:
    return [format_fraction(v) for v in values]


def _action_sets(g: Game, sets) -> dict:
    return {
        g.players[i]: sorted(g.actions[i][a] for a in actions)
        for i, actions in enumerate(sets)
    }


def _graph_command(args, describe) -> int:
    """The graph path of ``analyze`` and ``cycles``: the game, its graph
    under ``--tie-policy``, one id per node, and the cycles of at most
    ``--max-len`` edges, through the node whose id is ``--through`` or all.
    ``describe(g, graph, cycles, ids, report, text)`` fills in the report and
    returns the text lines, none unless ``text`` (``--format text``); ``--format
    dot`` writes the graph instead, since its text shows nothing ``describe`` computes."""
    g = parse_game(_read(args.game))
    graph = build_periodicity_graph(g, TiePolicy(args.tie_policy))
    ids = {n: node_id(g, n) for n in graph.nodes}  # one id per node, read per cycle
    max_len = args.max_len or len(graph.nodes)
    through = getattr(args, "through", None)
    if through is None:
        cycles = all_cycles(graph, max_len)
    else:
        nodes = [n for n, text in ids.items() if text == through]
        if len(nodes) != 1:
            raise IndexOutOfRange(f"--through {through!r} is the id of {len(nodes)} nodes, not of one")
        cycles = enumerate_cycles(graph, nodes[0], max_len)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph, g, cycles))
    else:
        report = _base_report(args)
        _emit(args, report, describe(g, graph, cycles, ids, report, args.format == "text"))
    return EXIT_OK


def _analyze_report(g, graph, cycles, ids, report, text) -> list[str]:
    survivors = iesds(g, DominanceMode.ALLOW_MIXED)
    report["periodic_actions"] = _action_sets(g, periodic_actions(graph))
    report["iesds_survivors"] = _action_sets(g, survivors.survivors)
    report["rationalizable_periodic"] = _action_sets(g, rationalizable_periodic(graph, survivors))
    cycle_docs = []
    for cycle in cycles:
        doc = {
            "nodes": list(map(ids.__getitem__, cycle.nodes)),
            "players": [g.players[p] for p in cycle.player_sequence],
            "length": cycle.length,
        }
        if g.num_players == 2:
            counts = type_count(cycle, cycle.nodes[0].player)
            doc["periodicity_number"] = counts.n
            doc["types"] = counts.types
            doc["errors"] = counts.errors
        cycle_docs.append(doc)
    report["cycles"] = cycle_docs
    report["degenerate_nodes"] = sorted(ids[n] for n in graph.degenerate_flags)
    if not text:
        return []
    lines = [f"game: {', '.join(g.players)}"]
    lines.append("periodic actions: " + str(report["periodic_actions"]))
    lines.append("iesds survivors: " + str(report["iesds_survivors"]))
    lines.append("rationalizable periodic: " + str(report["rationalizable_periodic"]))
    for doc in cycle_docs:
        lines.append("cycle: " + " -> ".join(doc["nodes"]) + f" (length {doc['length']})")
        if "types" in doc:
            lines.append(f"  types={doc['types']} errors={doc['errors']}")
    return lines


def _cycles_report(g, graph, cycles, ids, report, text) -> list[str]:
    report["cycles"] = [list(map(ids.__getitem__, c.nodes)) for c in cycles]
    if not text:
        return []
    return ["cycles:"] + ["  " + " -> ".join(path) for path in report["cycles"]] if cycles else ["no cycles"]


def cmd_mixed(args) -> int:
    g = parse_game(_read(args.game))
    report = _base_report(args)
    lines = []
    components = {}
    for i, player in enumerate(g.players):
        try:
            result = periodic_mixed(g, i)
        except Infeasible:
            components[player] = None
            lines.append(f"{player}: no payoff-equalizing mixture exists")
            continue
        spread = invariance_check(g, i, result.probabilities)
        if spread:
            raise CertificateError(f"the mixture of player {player!r} moves its payoff by {format_fraction(spread)}")
        components[player] = {
            "probabilities": list(result.probabilities),
            "value": result.value,
            "solution_dimension": result.dimension,
            "payoff_spread": spread,
        }
        lines.append(
            f"{player}: p={_strs(result.probabilities)} "
            f"value={format_fraction(result.value)} spread={format_fraction(spread)}"
        )
    report["periodic_mixed"] = components
    if None not in components.values():
        # No opponent moves a periodic mixture's value, so it is the owner's expected utility.
        utils = [c["value"] for c in components.values()]
        report["joint_expected_utilities"] = utils
        lines.append("joint expected utilities: " + str(_strs(utils)))
    _emit(args, report, lines)
    return EXIT_OK


def cmd_nash(args) -> int:
    g = parse_game(_read(args.game))
    equilibria = nash_support_enumeration(g)
    report = _base_report(args)
    report["equilibria"] = [
        {
            "row_strategy": list(e.row_strategy),
            "col_strategy": list(e.col_strategy),
            "utilities": list(e.utilities),
            "support": [list(s) for s in e.support],
        }
        for e in equilibria
    ]
    lines = [f"{len(equilibria)} equilibria"]
    for e in equilibria:
        lines.append(
            f"  p={_strs(e.row_strategy)} q={_strs(e.col_strategy)} "
            f"utilities=({', '.join(_strs(e.utilities))})"
        )
    _emit(args, report, lines)
    return EXIT_OK


def cmd_coco(args) -> int:
    g = parse_game(_read(args.game))
    solution = coco_solution(g)
    split = solution.decomposition
    report = _base_report(args)
    if args.format == "machine":  # the matrices' texts, from their integers
        report["cooperative_matrix"] = [[_ratio_text(v, split.scale) for v in row] for row in split.sums]
        report["competitive_matrix"] = [[_ratio_text(v, split.scale) for v in row] for row in split.differences]
    report["vsharp"] = solution.vsharp
    report["vs"] = solution.vs
    report["profile"] = [
        g.actions[0][solution.profile[0]],
        g.actions[1][solution.profile[1]],
    ]
    report["tied_profiles"] = [
        [g.actions[0][r], g.actions[1][c]] for r, c in solution.tied_profiles
    ]
    report["side_payment"] = solution.side_payment
    report["final_payoffs"] = list(solution.final_payoffs)
    report["zero_sum_strategies"] = [list(s) for s in solution.zero_sum_strategies]
    lines = [
        f"joint maximum: {format_fraction(solution.vsharp)} at {tuple(report['profile'])}",
        f"zero-sum value: {format_fraction(solution.vs)}",
        f"side payment (column pays row): {format_fraction(solution.side_payment)}",
        f"final payoffs: ({', '.join(_strs(solution.final_payoffs))})",
    ]
    _emit(args, report, lines)
    return EXIT_OK


def cmd_bayes(args) -> int:
    bg = parse_bayes(_read(args.game))
    builders = {
        "ex-ante": ex_ante_game,
        "interim": interim_game,
        "interim-correlated": interim_correlated_game,
    }
    game = builders[args.to](bg)
    sys.stdout.write(serialize_game(game))
    return EXIT_OK


def cmd_check(args) -> int:
    """Seeded random-game sweep of the existence and stability guarantees."""
    rng = random.Random(args.seed)
    for _ in range(args.count):
        g = random_game(rng)
        graph = build_periodicity_graph(g, TiePolicy.LEX)
        if not graph.cyclic_nodes:
            sys.stdout.write("FAIL: game without periodic actions found\n")
            return EXIT_INVALID
        for node in graph.nodes:
            walk = reach_cycle(graph, node)
            if len(walk) > len(graph.nodes):
                sys.stdout.write("FAIL: stability walk longer than node count\n")
                return EXIT_INVALID
    sys.stdout.write(f"checked {args.count} random games: all have periodic actions\n")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The one parser of a process, built on first use; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = _Parser(prog="perigame", description="Exact analysis of finite strategic form games")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Only the commands that build the periodicity graph take a tie policy
    # and DOT output.
    for name, help_text, describe in (
        ("analyze", "periodic actions, survivors, cycles, type counts", _analyze_report),
        ("cycles", "enumerate simple cycles of the periodicity graph", _cycles_report),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("game", help="input file")
        p.add_argument("--tie-policy", choices=("strict", "lex"), default="lex")
        p.add_argument("--format", choices=("text", "machine", "dot"), default="text")
        if name == "cycles":
            p.add_argument("--through", help="node id as printed, player:action", default=None)
        p.add_argument("--max-len", type=_at_least(2), default=None)
        p.set_defaults(func=functools.partial(_graph_command, describe=describe))

    for name, help_text, func in (
        ("mixed", "payoff-equalizing mixtures and invariance spread", cmd_mixed),
        ("nash", "all extreme Nash equilibria of a bimatrix game, exactly", cmd_nash),
        ("coco", "cooperative-competitive decomposition and solution", cmd_coco),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("game", help="input file")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(func=func)

    p = sub.add_parser("bayes", help="build a complete-information companion game")
    p.add_argument("game", help="input file")
    p.add_argument("--to", choices=("ex-ante", "interim", "interim-correlated"), required=True)
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("check", help="random-game sweep of the structural guarantees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(1), default=100)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DegenerateArgmax as exc:
        sys.stderr.write(f"degenerate argmax: {exc}\n")
        return EXIT_DEGENERATE
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:  # undecodable bytes too
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:  # a missing file, a directory, no permission
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_INVALID
    except GameError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
