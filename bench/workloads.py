"""Seeded input generation for the perigame benchmark.

Each workload is a fixed list of invocations. The list's composition (which
command, which shape, which payoff kind, how many of each) is a constant of
the workload; the seed only draws the payoffs, the Bayesian priors and the
``--through`` anchors. The same (workload, seed) pair always yields the same
argv lists and byte-identical game files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

PAYOFF_RANGE = (-9, 9)
MAX_DENOMINATOR = 12


@dataclass(frozen=True)
class Invocation:
    """One ``perigame`` call: ``argv`` names its game file as ``{file}``."""

    kind: str  # cost class, e.g. "nash 4x4 int"; used for per-size cost tables
    argv: tuple[str, ...]
    doc: Optional[dict]  # game or Bayesian-game document written to {file}

    def resolved_argv(self, path: str) -> list[str]:
        return [path if a == "{file}" else a for a in self.argv]


def _int_payoff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(*PAYOFF_RANGE))


def _binary_payoff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 1))


def _rational_payoff(rng: random.Random) -> Fraction:
    d = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(PAYOFF_RANGE[0] * d, PAYOFF_RANGE[1] * d), d)


PAYOFFS = {"int": _int_payoff, "bin": _binary_payoff, "rat": _rational_payoff}


def game_doc(rng: random.Random, shape: tuple[int, ...], payoff_kind: str) -> dict:
    n = len(shape)
    players = [f"P{i + 1}" for i in range(n)]
    draw = PAYOFFS[payoff_kind]

    def table(depth: int):
        if depth == n:
            return [str(draw(rng)) for _ in range(n)]
        return [table(depth + 1) for _ in range(shape[depth])]

    return {
        "players": players,
        "actions": {p: [f"{p.lower()}a{k + 1}" for k in range(size)] for p, size in zip(players, shape)},
        "payoffs": table(0),
    }


def bayes_doc(rng: random.Random, type_counts: tuple[int, int], num_actions: int) -> dict:
    """Two players, two parameter values, a full-support common prior."""
    players = ["P1", "P2"]
    thetas = ["th1", "th2"]
    types = {p: [f"{p.lower()}t{k + 1}" for k in range(c)] for p, c in zip(players, type_counts)}
    keys = [(th, list(tp)) for th in thetas for tp in itertools.product(*types.values())]
    weights = [rng.randint(1, 4) for _ in keys]
    total = sum(weights)

    def table(depth: int):
        if depth == 2:
            return [str(_int_payoff(rng)) for _ in range(2)]
        return [table(depth + 1) for _ in range(num_actions)]

    return {
        "players": players,
        "actions": {p: [f"{p.lower()}a{k + 1}" for k in range(num_actions)] for p in players},
        "thetas": thetas,
        "types": types,
        "prior": [[th, tp, str(Fraction(w, total))] for (th, tp), w in zip(keys, weights)],
        "payoffs": {th: table(0) for th in thetas},
    }


def _shape_name(shape) -> str:
    return "x".join(str(s) for s in shape)


# Composition of each workload: (command, shape, payoff kind, extra flags, count).
# The README gives the reason for each entry and the cost of each size at the
# parent commit, so a later change can resize the mix deliberately. Counts
# also place the median and the 90th percentile of call times inside one
# class of similar cost (coco 20x20 and bayes interim 2x2 for the medians),
# not at the edge between two classes, where they would jump from seed to
# seed.
NASH_MIXED = [
    ("nash", (3, 3), "int", (), 8),
    ("nash", (3, 3), "bin", (), 4),
    ("nash", (3, 4), "int", (), 2),
    ("nash", (4, 3), "int", (), 2),
    ("nash", (4, 4), "int", (), 2),
    ("nash", (4, 4), "bin", (), 2),
    ("nash", (3, 5), "int", (), 1),
    ("nash", (5, 3), "int", (), 1),
    ("nash", (4, 5), "int", (), 1),
    ("mixed", (6, 3), "int", (), 4),
    ("mixed", (3, 6), "int", (), 4),
    ("mixed", (3, 3), "int", (), 1),
    ("mixed", (4, 4), "int", (), 1),
    ("mixed", (5, 5), "int", (), 1),
]

DOMINANCE_COCO = [
    ("analyze", (8, 8), "rat", (), 18),
    ("analyze", (10, 10), "rat", (), 1),
    ("coco", (20, 20), "rat", (), 40),
    ("coco", (25, 25), "rat", (), 1),
]

GRAPH_CYCLES = [
    ("cycles", (3, 3, 3), "int", ("--format", "machine"), 4),
    ("cycles", (4, 4, 4), "int", ("--format", "machine"), 4),
    ("cycles", (5, 5, 5), "int", ("--format", "dot"), 2),
    ("cycles", (3, 3, 3, 3), "int", ("--format", "machine"), 4),
    ("cycles", (3, 3, 3, 3), "int", ("--format", "dot"), 2),
    ("cycles", (4, 4, 4, 4), "int", ("--through",), 6),
]

# (target, type counts, actions, count)
GRAPH_BAYES = [
    ("ex-ante", (2, 2), 3, 4),
    ("ex-ante", (3, 3), 3, 2),
    ("ex-ante", (4, 2), 3, 1),
    ("interim", (2, 2), 3, 12),
    ("interim", (3, 2), 3, 2),
    ("interim", (4, 4), 2, 1),
    ("interim-correlated", (2, 3), 3, 2),
    ("interim-correlated", (3, 3), 3, 2),
    ("interim-correlated", (4, 2), 2, 2),
]

CHECK_COUNT = 25
CHECK_CALLS = 4


def _strategic(rng: random.Random, mix) -> list[Invocation]:
    out = []
    for command, shape, payoff_kind, flags, count in mix:
        for _ in range(count):
            doc = game_doc(rng, shape, payoff_kind)
            argv = [command, "{file}"]
            kind = f"{command} {_shape_name(shape)} {payoff_kind}"
            if flags == ("--through",):
                player = rng.choice(doc["players"])
                action = rng.choice(doc["actions"][player])
                argv += ["--through", f"{player}:{action}", "--format", "machine"]
                kind += " through"
            elif flags:
                argv += list(flags)
                kind += f" {flags[-1]}"
            else:
                argv += ["--format", "machine"]
            out.append(Invocation(kind, tuple(argv), doc))
    return out


def _nash_mixed(rng: random.Random) -> list[Invocation]:
    return _strategic(rng, NASH_MIXED)


def _dominance_coco(rng: random.Random) -> list[Invocation]:
    return _strategic(rng, DOMINANCE_COCO)


def _graph_bayes(rng: random.Random) -> list[Invocation]:
    out = _strategic(rng, GRAPH_CYCLES)
    for target, type_counts, num_actions, count in GRAPH_BAYES:
        for _ in range(count):
            doc = bayes_doc(rng, type_counts, num_actions)
            kind = f"bayes {target} {_shape_name(type_counts)} types {num_actions} actions"
            out.append(Invocation(kind, ("bayes", "{file}", "--to", target), doc))
    for _ in range(CHECK_CALLS):
        argv = ("check", "--seed", str(rng.randrange(2**31)), "--count", str(CHECK_COUNT))
        out.append(Invocation(f"check count {CHECK_COUNT}", argv, None))
    return out


WORKLOADS = {
    "nash-mixed": _nash_mixed,
    "dominance-coco": _dominance_coco,
    "graph-bayes": _graph_bayes,
}


def build(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for one seed, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    invocations = WORKLOADS[workload](rng)
    rng.shuffle(invocations)
    return invocations


def file_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"
