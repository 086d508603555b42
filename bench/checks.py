"""Independent checks of perigame outputs, written against the input documents.

These run once per input outside the timed region. They hold for every seed,
so a seed with no recorded fingerprint is still checked. Each check returns
an error message, or None when the output is consistent with its input.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from workloads import CHECK_COUNT, Invocation

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _payoff_tensor(doc: dict) -> dict:
    """Row-major profile -> payoff vector of a game document."""
    shape = [len(doc["actions"][p]) for p in doc["players"]]
    out = {}
    for profile in itertools.product(*(range(s) for s in shape)):
        node = doc["payoffs"]
        for a in profile:
            node = node[a]
        out[profile] = [Fraction(v) for v in node]
    return out


def _matrices(doc: dict):
    u = _payoff_tensor(doc)
    rows, cols = (len(doc["actions"][p]) for p in doc["players"])
    a = [[u[(r, c)][0] for c in range(cols)] for r in range(rows)]
    b = [[u[(r, c)][1] for c in range(cols)] for r in range(rows)]
    return a, b


def _distribution(values, size: int):
    p = [Fraction(v) for v in values]
    if len(p) != size or any(x < 0 for x in p) or sum(p) != 1:
        return None
    return p


def _check_nash(doc: dict, report: dict):
    a, b = _matrices(doc)
    rows, cols = len(a), len(a[0])
    if not report["equilibria"]:
        return "no equilibrium reported"
    for e in report["equilibria"]:
        p = _distribution(e["row_strategy"], rows)
        q = _distribution(e["col_strategy"], cols)
        if p is None or q is None:
            return "equilibrium strategy is not a distribution"
        row_pay = [sum(a[r][c] * q[c] for c in range(cols)) for r in range(rows)]
        col_pay = [sum(b[r][c] * p[r] for r in range(rows)) for c in range(cols)]
        u = (sum(p[r] * row_pay[r] for r in range(rows)), sum(q[c] * col_pay[c] for c in range(cols)))
        if u[0] != max(row_pay) or u[1] != max(col_pay):
            return "equilibrium admits a profitable deviation"
        if [Fraction(v) for v in e["utilities"]] != list(u):
            return "equilibrium utilities are wrong"
    return None


def _check_mixed(doc: dict, report: dict):
    a, b = _matrices(doc)
    own = [a, [list(col) for col in zip(*b)]]
    vectors = []
    for i, player in enumerate(doc["players"]):
        entry = report["periodic_mixed"][player]
        if entry is None:
            vectors.append(None)
            continue
        m = own[i]
        p = _distribution(entry["probabilities"], len(m))
        if p is None:
            return f"mixture of {player} is not a distribution"
        payoffs = {sum(m[k][j] * p[k] for k in range(len(m))) for j in range(len(m[0]))}
        if payoffs != {Fraction(entry["value"])} or entry["payoff_spread"] != "0":
            return f"mixture of {player} does not equalize its payoffs"
        vectors.append(p)
    if all(v is not None for v in vectors):
        p, q = vectors
        u = [sum(p[r] * q[c] * m[r][c] for r in range(len(p)) for c in range(len(q))) for m in (a, b)]
        if [Fraction(v) for v in report["joint_expected_utilities"]] != u:
            return "joint expected utilities are wrong"
    elif "joint_expected_utilities" in report:
        return "joint utilities reported without both mixtures"
    return None


def _check_analyze(doc: dict, report: dict):
    a, b = _matrices(doc)
    players = doc["players"]
    labels = [doc["actions"][p] for p in players]
    alive = [[labels[i].index(x) for x in report["iesds_survivors"][p]] for i, p in enumerate(players)]
    if not all(alive):
        return "a player has no IESDS survivor"
    own = [a, [list(col) for col in zip(*b)]]
    for i in range(2):
        m, opp = own[i], alive[1 - i]
        for x, y in itertools.permutations(alive[i], 2):
            if all(m[y][j] > m[x][j] for j in opp):
                return "an IESDS survivor is strictly dominated by another survivor"
    for p in players:
        expected = sorted(set(report["periodic_actions"][p]) & set(report["iesds_survivors"][p]))
        if report["rationalizable_periodic"][p] != expected:
            return "rationalizable periodic actions are not periodic survivors"
    if not any(report["periodic_actions"].values()):
        return "no periodic action reported"
    if any(c["length"] != len(c["nodes"]) or c["length"] < 2 for c in report["cycles"]):
        return "malformed cycle"
    return None


def _check_coco(doc: dict, report: dict):
    a, b = _matrices(doc)
    rows, cols = len(a), len(a[0])
    vsharp = max(a[r][c] + b[r][c] for r in range(rows) for c in range(cols))
    vs = Fraction(report["vs"])
    competitive = [[(a[r][c] - b[r][c]) / 2 for c in range(cols)] for r in range(rows)]
    x = _distribution(report["zero_sum_strategies"][0], rows)
    y = _distribution(report["zero_sum_strategies"][1], cols)
    if x is None or y is None:
        return "zero-sum strategy is not a distribution"
    if min(sum(x[r] * competitive[r][c] for r in range(rows)) for c in range(cols)) != vs:
        return "row strategy does not certify the zero-sum value"
    if max(sum(y[c] * competitive[r][c] for c in range(cols)) for r in range(rows)) != vs:
        return "column strategy does not certify the zero-sum value"
    if Fraction(report["vsharp"]) != vsharp:
        return "joint maximum is wrong"
    final = [Fraction(v) for v in report["final_payoffs"]]
    if final != [vsharp / 2 + vs, vsharp / 2 - vs]:
        return "final payoffs are wrong"
    r, c = (doc["actions"][p].index(x) for p, x in zip(doc["players"], report["profile"]))
    if a[r][c] + b[r][c] != vsharp or final[0] - a[r][c] != Fraction(report["side_payment"]):
        return "chosen profile or side payment is wrong"
    return None


def best_deviation_edges(doc: dict) -> tuple[dict, set]:
    """Lex-policy periodicity graph of a game document.

    Returns ((player, action) -> {opponent: action}, degenerate nodes), a
    node being degenerate when its argmax over opponent profiles is tied.
    """
    u = _payoff_tensor(doc)
    shape = [len(doc["actions"][p]) for p in doc["players"]]
    n = len(shape)
    edges, degenerate = {}, set()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for a in range(shape[i]):
            best, best_value, tied = None, None, False
            for opp in itertools.product(*(range(shape[j]) for j in others)):
                profile = [0] * n
                profile[i] = a
                for j, x in zip(others, opp):
                    profile[j] = x
                value = u[tuple(profile)][i]
                if best_value is None or value > best_value:
                    best, best_value, tied = opp, value, False
                elif value == best_value:
                    tied = True
            edges[(i, a)] = dict(zip(others, best))
            if tied:
                degenerate.add((i, a))
    return edges, degenerate


def _check_cycles(doc: dict, report: dict, through):
    players = doc["players"]
    edges, _ = best_deviation_edges(doc)
    seen = set()
    for cycle in report["cycles"]:
        nodes = []
        for node_id in cycle:
            player, _, action = node_id.partition(":")
            i = players.index(player)
            nodes.append((i, doc["actions"][player].index(action)))
        if len(set(nodes)) != len(nodes) or len(nodes) < 2:
            return "cycle is not simple"
        for k, (i, a) in enumerate(nodes):
            j, b = nodes[(k + 1) % len(nodes)]
            if edges[(i, a)].get(j) != b:
                return "cycle uses an edge that is not a best deviation"
        if through is not None and cycle[0] != through:
            return "cycle does not start at the --through node"
        rotation = min(tuple(nodes[k:] + nodes[:k]) for k in range(len(nodes)))
        if through is None and rotation in seen:
            return "cycle reported twice"
        seen.add(rotation)
    if through is None and not report["cycles"]:
        return "no cycle reported"
    return None


def _check_dot(doc: dict, text: str):
    num_nodes = sum(len(a) for a in doc["actions"].values())
    lines = text.splitlines()
    edges = sum(1 for line in lines if " -> " in line)
    if lines[0] != "digraph periodicity {" or lines[-1] != "}":
        return "not a periodicity digraph"
    if len(lines) - 2 - edges != num_nodes or edges != num_nodes * (len(doc["players"]) - 1):
        return "wrong node or edge count"
    return None


def _bayes_expected_payoff(doc: dict, target: str, game: dict, profile) -> list:
    """Independent evaluation of one payoff vector of a companion game."""
    players = doc["players"]
    actions = [doc["actions"][p] for p in players]
    types = [doc["types"][p] for p in players]
    prior = [(th, [types[i].index(t) for i, t in enumerate(tp)], Fraction(w)) for th, tp, w in doc["prior"]]

    def state_payoff(theta, action_profile):
        node = doc["payoffs"][theta]
        for a in action_profile:
            node = node[a]
        return [Fraction(v) for v in node]

    if target == "ex-ante":
        strategy = [game["actions"][p][k] for p, k in zip(game["players"], profile)]
        total = [Fraction(0), Fraction(0)]
        for th, tp, w in prior:
            chosen = []
            for i in range(2):
                label = strategy[i]
                width = len(label) // len(types[i])
                chosen.append(actions[i].index(label[tp[i] * width:(tp[i] + 1) * width]))
            u = state_payoff(th, chosen)
            total = [x + w * y for x, y in zip(total, u)]
        return total
    # Interim games: one player per (player, type); type-conditional expectations.
    ids = [(i, t) for i in range(2) for t in range(len(types[i]))]
    choice = dict(zip(ids, profile))
    out = []
    for i, t in ids:
        mass = sum(w for _, tp, w in prior if tp[i] == t)
        total = Fraction(0)
        for th, tp, w in prior:
            if tp[i] != t:
                continue
            chosen = [choice[(j, tp[j])] for j in range(2)]
            total += w / mass * state_payoff(th, chosen)[i]
        out.append(total)
    return out


def _check_bayes(doc: dict, target: str, game: dict):
    types = [doc["types"][p] for p in doc["players"]]
    if target == "ex-ante":
        widths = [len(doc["actions"][p]) ** len(t) for p, t in zip(doc["players"], types)]
    else:
        widths = [len(doc["actions"][p]) for p, t in zip(doc["players"], types) for _ in t]
    shape = [len(game["actions"][p]) for p in game["players"]]
    if shape != widths:
        return f"companion game has shape {shape}, expected {widths}"
    u = _payoff_tensor(game)
    profiles = sorted(u)
    for profile in profiles[:: max(1, len(profiles) // 16)] + profiles[-1:]:
        if u[profile] != _bayes_expected_payoff(doc, target, game, profile):
            return f"companion payoff at {profile} is wrong"
    return None


def check_output(inv: Invocation, text: str):
    """None if ``text`` is a correct stdout for ``inv``, else the reason."""
    command = inv.argv[0]
    try:
        if command == "check":
            expected = f"checked {CHECK_COUNT} random games: all have periodic actions\n"
            return None if text == expected else "check sweep failed"
        if "dot" in inv.argv:
            return _check_dot(inv.doc, text)
        doc = json.loads(text)
        if command == "nash":
            return _check_nash(inv.doc, doc)
        if command == "mixed":
            return _check_mixed(inv.doc, doc)
        if command == "analyze":
            return _check_analyze(inv.doc, doc)
        if command == "coco":
            return _check_coco(inv.doc, doc)
        if command == "cycles":
            through = inv.argv[inv.argv.index("--through") + 1] if "--through" in inv.argv else None
            return _check_cycles(inv.doc, doc, through)
        if command == "bayes":
            return _check_bayes(inv.doc, inv.argv[3], doc)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return f"no check for command {command!r}"


def max_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the rationals of a JSON report."""
    try:
        doc = json.loads(text)
    except ValueError:
        return 0
    best = 0
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str) and RATIONAL.match(node):
            value = Fraction(node)
            best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
    return best
