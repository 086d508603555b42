import functools
import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import periodic_games
from periodic_games import Game, bayes, cli, game, linalg, lp, periodicity, rationalizability
from periodic_games.bayes import interim_game
from periodic_games.cli import main
from periodic_games.io import parse_bayes, parse_game

from conftest import FIXTURES, colliding_pairs_bayes, colliding_strategies_bayes, distinct_masses_bayes, many_cycles_game, many_types_bayes, recursion_limit, shift_game, tall_game
from test_io import DOCUMENT_CHECKS, deep_payoffs_game, deep_prior_bayes, long_bare_integer_game, one_action_game

BOS = str(FIXTURES / "battle_of_sexes.game.json")
PD = str(FIXTURES / "prisoners_dilemma.game.json")
BAYES = str(FIXTURES / "two_type.bayes.json")


def flat_game(tmp_path):
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["x", "y"], "B": ["l", "r"]},
        "payoffs": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_text(capsys):
    assert main(["analyze", BOS]) == 0
    out = capsys.readouterr().out
    assert "periodic actions" in out
    assert "A:a1 -> B:b1" in out
    assert "types=2 errors=1" in out


THREE_PLAYER_CYCLES = [
    "A:a1 -> B:b2",
    "A:a1 -> C:c2",
    "A:a1 -> B:b2 -> C:c1",
    "A:a1 -> C:c2 -> B:b2",
    "A:a1 -> B:b2 -> C:c1 -> B:b1",
    "A:a1 -> C:c2 -> B:b2 -> C:c1",
    "A:a1 -> B:b2 -> C:c1 -> B:b1 -> C:c2",
    "A:a1 -> C:c2 -> B:b2 -> C:c1 -> B:b1",
    "B:b1 -> C:c2 -> B:b2 -> C:c1",
]


def test_graph_commands_print_their_text_lines(capsys):
    three = str(FIXTURES / "three_player.game.json")
    assert main(["cycles", three, "--format", "text"]) == 0
    assert capsys.readouterr().out == "cycles:\n" + "".join(f"  {c}\n" for c in THREE_PLAYER_CYCLES)
    assert main(["analyze", three, "--format", "text"]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in [
        "game: A, B, C",
        "periodic actions: {'A': ['a1'], 'B': ['b1', 'b2'], 'C': ['c1', 'c2']}",
        "iesds survivors: {'A': ['a1', 'a2'], 'B': ['b1', 'b2'], 'C': ['c1', 'c2']}",
        "rationalizable periodic: {'A': ['a1'], 'B': ['b1', 'b2'], 'C': ['c1', 'c2']}",
        *(f"cycle: {c} (length {c.count('->') + 1})" for c in THREE_PLAYER_CYCLES),
    ])
    assert main(["analyze", BOS, "--format", "text"]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in [
        "game: A, B",
        "periodic actions: {'A': ['a1', 'a2'], 'B': ['b1', 'b2']}",
        "iesds survivors: {'A': ['a1', 'a2'], 'B': ['b1', 'b2']}",
        "rationalizable periodic: {'A': ['a1', 'a2'], 'B': ['b1', 'b2']}",
        "cycle: A:a1 -> B:b1 (length 2)",
        "  types=2 errors=1",
        "cycle: A:a2 -> B:b2 (length 2)",
        "  types=2 errors=1",
    ])


def test_analyze_machine(capsys):
    assert main(["analyze", BOS, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tie_policy"] == "lex"
    assert doc["periodic_actions"] == {"A": ["a1", "a2"], "B": ["b1", "b2"]}
    assert doc["iesds_survivors"] == {"A": ["a1", "a2"], "B": ["b1", "b2"]}
    assert len(doc["cycles"]) == 2
    assert doc["cycles"][0]["types"] == 2


def test_analyze_dot(capsys):
    assert main(["analyze", BOS, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph periodicity {")


def test_cycles_through(capsys):
    assert main(["cycles", BOS, "--through", "A:a2"]) == 0
    out = capsys.readouterr().out
    assert "A:a2 -> B:b2" in out
    assert "A:a1" not in out


def test_mixed(capsys):
    assert main(["mixed", BOS, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["periodic_mixed"]["A"]["probabilities"] == ["1/3", "2/3"]
    assert doc["periodic_mixed"]["A"]["payoff_spread"] == "0"
    assert doc["joint_expected_utilities"] == ["2/3", "2/3"]
    assert doc["tie_policy"] == "lex"


@pytest.mark.parametrize("command", ["coco", "nash", "mixed", "analyze"])
def test_an_underscore_in_a_payoff_literal_exits_2_on_every_python(tmp_path, capsys, command):
    doc = {"players": ["A", "B"], "actions": {"A": ["x", "y"], "B": ["l", "r"]},
           "payoffs": [[["1_0", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]}
    path = tmp_path / "underscore.game.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid input: bad rational literal '1_0'")


def test_mixed_reports_each_value_as_its_players_expected_utility(capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("expected_utility called")

    monkeypatch.setattr(game, "expected_utility", unused)
    monkeypatch.setattr(cli, "expected_utility", unused, raising=False)
    assert main(["mixed", str(FIXTURES / "three_player.game.json"), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["joint_expected_utilities"] == [doc["periodic_mixed"][p]["value"] for p in ("A", "B", "C")]


def test_mixed_with_a_nonzero_payoff_spread_is_a_certificate_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "invariance_check", lambda g, i, p: Fraction(1, 3))
    assert main(["mixed", BOS, "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the mixture of player 'A' moves its payoff by 1/3\n"


def test_mixed_on_three_players(capsys):
    assert main(["mixed", str(FIXTURES / "three_player.game.json"), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = {"A": (["1/2", "1/2"], "2"), "B": (["2/5", "3/5"], "6/5"), "C": (["1/5", "4/5"], "4/5")}
    for player, (probabilities, value) in expected.items():
        component = doc["periodic_mixed"][player]
        assert (component["probabilities"], component["value"]) == (probabilities, value)
        assert component["payoff_spread"] == "0"
    assert doc["joint_expected_utilities"] == ["2", "6/5", "4/5"]


def test_mixed_reports_infeasible_component(capsys):
    path = str(FIXTURES / "four_by_four.game.json")
    assert main(["mixed", path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["periodic_mixed"]["B"] is None
    assert "joint_expected_utilities" not in doc


def test_nash(capsys):
    assert main(["nash", BOS, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    strategies = {tuple(e["row_strategy"]) for e in doc["equilibria"]}
    assert ("2/3", "1/3") in strategies
    assert len(doc["equilibria"]) == 3
    assert doc["tie_policy"] == "lex"


def test_coco(capsys):
    assert main(["coco", PD, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vsharp"] == "8"
    assert doc["side_payment"] == "0"
    assert doc["final_payoffs"] == ["4", "4"]
    assert doc["tie_policy"] == "lex"


def test_bayes_ex_ante(capsys):
    assert main(["bayes", BAYES, "--to", "ex-ante"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["actions"]["1"] == ["UU", "UD", "DU", "DD"]
    assert doc["payoffs"][2][1] == ["1/2", "1/2"]


def test_bayes_ex_ante_with_colliding_strategy_labels(tmp_path, capsys):
    path = tmp_path / "colliding.bayes.json"
    path.write_text(colliding_strategies_bayes())
    assert main(["bayes", str(path), "--to", "ex-ante"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["actions"] == {"1": ['["a","a"]', '["a","aa"]', '["aa","a"]', '["aa","aa"]'], "2": ["L", "R"]}
    game_path = tmp_path / "ex_ante.game.json"
    game_path.write_text(text)
    assert main(["analyze", str(game_path)]) == 0


def test_bayes_interim(capsys):
    assert main(["bayes", BAYES, "--to", "interim"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["players"] == ["t1", "t1p", "t2"]


@pytest.mark.parametrize("to", ["interim", "interim-correlated"])
def test_bayes_interim_with_colliding_qualified_pair_labels(tmp_path, capsys, to):
    path = tmp_path / "colliding_pairs.bayes.json"
    path.write_text(colliding_pairs_bayes())
    assert main(["bayes", str(path), "--to", to]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["players"] == ['["A","B.b"]', '["A","x"]', '["A.B","b"]', '["A.B","x"]']
    game_path = tmp_path / "interim.game.json"
    game_path.write_text(text)
    assert main(["cycles", str(game_path), "--format", "machine"]) == 0


def test_check_is_deterministic(capsys):
    assert main(["check", "--seed", "5", "--count", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--seed", "5", "--count", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "checked 3 random games" in first


def test_check_count_below_one_is_a_usage_error(capsys):
    for value in ("0", "-4", "x"):
        assert main(["check", "--count", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--count" in captured.err and "Traceback" not in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["analyze"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["cycles"], ["mixed"], ["nash"], ["coco"], ["bayes", "--to", "interim"]],
    ids=lambda argv: argv[0],
)
def test_unreadable_input_exit_code(tmp_path, capsys, command):
    # A directory cannot be read as a file; UTF-16 text starts with the
    # bytes ff fe, which are not UTF-8.
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"players": ["A", "B"]}'.encode("utf-16-le"))
    name, *flags = command
    cases = ((tmp_path, "cannot read input: "), (utf16, "invalid input: 'utf-8' codec can't decode byte 0xff"))
    for path, message in cases:
        assert main([name, str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message), captured.err


def test_invalid_document_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()


def test_strict_tie_policy_exit_code(tmp_path, capsys):
    path = flat_game(tmp_path)
    assert main(["analyze", path, "--tie-policy", "strict"]) == 3
    capsys.readouterr()
    assert main(["analyze", path, "--tie-policy", "lex"]) == 0
    capsys.readouterr()


def test_max_len_below_two_is_a_usage_error(capsys):
    for command in ("cycles", "analyze"):
        for value in ("1", "0", "-3", "x"):
            assert main([command, BOS, "--max-len", value]) == 1
            err = capsys.readouterr().err
            assert "--max-len" in err and "Traceback" not in err
    assert main(["cycles", BOS, "--max-len", "2"]) == 0
    assert "A:a1 -> B:b1" in capsys.readouterr().out


def test_cycles_text_reports_no_cycles(capsys):
    # A2 (defect) is not on the prisoner's dilemma's only cycle.
    assert main(["cycles", PD, "--through", "A:A2"]) == 0
    assert capsys.readouterr().out == "no cycles\n"
    assert main(["cycles", PD, "--through", "A:A1"]) == 0
    assert capsys.readouterr().out == "cycles:\n  A:A1 -> B:B1\n"


def test_bad_action_list_exit_code(tmp_path, capsys):
    for labels in ("xy", 5):
        doc = {
            "players": ["A", "B"],
            "actions": {"A": labels, "B": ["l"]},
            "payoffs": [[[1, 1]], [[0, 0]]],
        }
        path = tmp_path / "bad_actions.json"
        path.write_text(json.dumps(doc))
        assert main(["nash", str(path)]) == 2
        assert "must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("thetas", "ab"), ("types", 5), ("prior", 5)],
)
def test_bad_bayes_label_lists_exit_code(tmp_path, capsys, key, value):
    doc = json.loads(pathlib.Path(BAYES).read_text(encoding="utf-8"))
    if key == "types":
        doc["types"]["1"] = value
    else:
        doc[key] = value
    path = tmp_path / "bad.bayes.json"
    path.write_text(json.dumps(doc))
    assert main(["bayes", str(path), "--to", "interim"]) == 2
    assert "invalid input: " in capsys.readouterr().err


def test_a_bare_integer_past_the_conversion_limit_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "long.game.json"
    path.write_text(long_bare_integer_game(5000))
    assert main(["nash", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: number too long") and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["mixed"], ["cycles", "--format", "dot"], ["cycles", "--format", "machine"]],
    ids=" ".join,
)
def test_a_label_with_a_lone_surrogate_is_invalid_input(tmp_path, capsys, command):
    doc = {"players": ["A", "B"], "actions": {"A": ["x", "\ud800"], "B": ["l", "r"]},
           "payoffs": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    name, *flags = command
    assert main([name, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'invalid input: actions of player \'A\' must encode as UTF-8, got the label "\\ud800"\n'


@pytest.mark.parametrize(
    "command, source, old, key",
    [(["analyze"], PD, '"actions": {', "A"), (["bayes", "--to", "interim"], BAYES, '"payoffs": {', "th")],
    ids=["analyze", "bayes"],
)
def test_a_repeated_key_is_invalid_input(tmp_path, capsys, command, source, old, key):
    # An empty list for player A, or an empty table for parameter th, ahead
    # of the real one: reading the last of the two would hide it.
    text = pathlib.Path(source).read_text(encoding="utf-8")
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, old + f'"{key}": [], ', 1))
    name, *flags = command
    assert main([name, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: key {key!r} appears more than once in one object\n"


@pytest.mark.parametrize("case", DOCUMENT_CHECKS)
def test_every_shape_check_of_a_document_is_invalid_input(tmp_path, capsys, case):
    text, parse, message = DOCUMENT_CHECKS[case]
    path = tmp_path / "document.json"
    path.write_text(text)
    name, *flags = ["analyze"] if parse is parse_game else ["bayes", "--to", "interim"]
    assert main([name, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"invalid input: {message}\n"


@pytest.mark.parametrize("players", ["AB", 5])
def test_bad_players_exit_code(tmp_path, capsys, players):
    doc = json.loads(pathlib.Path(PD).read_text(encoding="utf-8"))
    doc["players"] = players
    path = tmp_path / "bad_players.json"
    path.write_text(json.dumps(doc))
    assert main(["coco", str(path)]) == 2
    assert "'players' must be a JSON list" in capsys.readouterr().err


def test_failed_certificate_is_an_error_not_a_traceback(capsys, monkeypatch):
    true_simplex = lp.simplex_max

    def broken(a, b, c, **kwargs):
        total, w, y, den = true_simplex(a, b, c, **kwargs)
        return total, w, tuple(2 * v for v in y), den

    monkeypatch.setattr(lp, "simplex_max", broken)
    assert main(["coco", PD]) == 2
    assert "primal and dual optima differ" in capsys.readouterr().err


def test_analyze_runs_iesds_once_and_intersects_its_survivors(capsys, monkeypatch):
    calls = []
    true_iesds = cli.iesds

    def counted(*args):
        calls.append(args)
        return true_iesds(*args)

    monkeypatch.setattr(cli, "iesds", counted)
    monkeypatch.setattr("periodic_games.rationalizability.iesds", counted)
    assert main(["analyze", PD, "--format", "machine"]) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    # Periodic actions are the cooperative ones, survivors the defecting ones.
    assert doc["periodic_actions"] == {"A": ["A1"], "B": ["B1"]}
    assert doc["iesds_survivors"] == {"A": ["A2"], "B": ["B2"]}
    assert doc["rationalizable_periodic"] == {"A": [], "B": []}


def _count_view_builds(monkeypatch) -> list:
    """The games whose integer payoff view, the cached ``Game.own_payoffs``,
    is built, one entry per build."""
    built = []
    build = Game.own_payoffs.func

    def counted(g):
        built.append(g)
        return build(g)

    view = functools.cached_property(counted)
    view.__set_name__(Game, "own_payoffs")
    monkeypatch.setattr(Game, "own_payoffs", view)
    return built


# A parsed game's integer view is built once, when an algorithm first reads
# it; every later read shares it.
def test_analyze_builds_the_payoff_view_once(capsys, monkeypatch):
    built = _count_view_builds(monkeypatch)
    # analyze builds the periodicity graph and runs IESDS.
    assert main(["analyze", BOS, "--format", "machine"]) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["periodic_actions"] == {"A": ["a1", "a2"], "B": ["b1", "b2"]}


def test_coco_builds_the_payoff_matrices_once(capsys, monkeypatch):
    built = _count_view_builds(monkeypatch)
    assert main(["coco", BOS, "--format", "machine"]) == 0
    assert len(built) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["cooperative_matrix"] == [["3/2", "0"], ["0", "3/2"]]
    assert doc["competitive_matrix"] == [["1/2", "0"], ["0", "-1/2"]]


@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_dot_is_rendered_only_for_the_dot_format(capsys, monkeypatch, command):
    rendered = []
    export_dot = cli.export_dot

    def counted(*args):
        rendered.append(export_dot(*args))
        return rendered[-1]

    monkeypatch.setattr(cli, "export_dot", counted)
    for fmt in ("text", "machine"):
        assert main([command, BOS, "--format", fmt]) == 0
    assert rendered == []
    capsys.readouterr()
    assert main([command, BOS, "--format", "dot"]) == 0
    assert [capsys.readouterr().out] == rendered


# The sha256 of each fixture's DOT text, as written while `analyze --format
# dot` still computed the periodic actions and the IESDS survivors.
DOT_DIGESTS = {
    "battle_of_sexes": "3fca9565e07febcddb91aa49b5f55c79d38aff328d39aca0c506aa9d0818ba0c",
    "coordination_2x2": "794b3baa736662d6f767bb855f24804794ced4521b7925da639a19207ff0c2a7",
    "four_by_four": "0262c0925bce16c465404b7c0844e396c727cbcc8b61e43cc804be80178b7372",
    "prisoners_dilemma": "9e799dad91b9f11e42611fe5d758af877c974e2bab7e90bf6fdaafa548f531fc",
    "three_player": "9035223a9686b1dfa8cf269be7dc36c2c07113de99b74f6724c2975b8210c64b",
}


@pytest.mark.parametrize("command", ["analyze", "cycles"])
def test_dot_computes_no_report_and_writes_the_same_text(capsys, monkeypatch, command):
    def unused(*args, **kwargs):
        raise AssertionError("the DOT text shows neither periodic actions nor IESDS survivors")

    monkeypatch.setattr(cli, "iesds", unused)
    monkeypatch.setattr(cli, "periodic_actions", unused)
    for name, digest in DOT_DIGESTS.items():
        assert main([command, str(FIXTURES / f"{name}.game.json"), "--format", "dot"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest and err == ""


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_analyze_builds_one_periodicity_graph_per_call(capsys, monkeypatch, fmt):
    build = periodicity.build_periodicity_graph
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(periodicity, "build_periodicity_graph", counted)
    monkeypatch.setattr(cli, "build_periodicity_graph", counted)
    for path in sorted(FIXTURES.glob("*.game.json")):
        builds.clear()
        assert main(["analyze", str(path), "--format", fmt]) == 0
        capsys.readouterr()
        assert len(builds) == 1, path.name


def test_coco_rejects_an_oversized_literal_as_invalid_input(tmp_path, capsys):
    doc = json.loads(pathlib.Path(PD).read_text(encoding="utf-8"))
    doc["payoffs"][0][0][0] = "1e5000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["coco", str(path), "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_a_value_too_long_to_print_is_an_error_not_a_traceback(tmp_path, capsys, fmt):
    # Each literal is within the parse bound, but the CO-CO values and the
    # periodic mixtures combine them into numerators or denominators of over
    # 4,300 digits; the equilibria and the graph of this game print none.
    doc = json.loads(pathlib.Path(PD).read_text(encoding="utf-8"))
    doc["payoffs"][0][0][0] = "1e-4000"
    doc["payoffs"][0][1][0] = "1e4000"
    path = tmp_path / "long_values.json"
    path.write_text(json.dumps(doc))
    for command in ("coco", "mixed"):
        assert main([command, str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a computed value has more than")
        assert "Traceback" not in captured.err
    for command in ("nash", "analyze"):
        assert main([command, str(path), "--format", fmt]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, text",
    [
        (["nash"], deep_payoffs_game(1200)),
        (["nash"], one_action_game(985)),
        (["analyze"], one_action_game(985)),
        (["bayes", "--to", "interim"], deep_prior_bayes(1200)),
    ],
    ids=["nash-1200-levels", "nash-985-players", "analyze-985-players", "bayes-1200-levels"],
)
def test_a_deeply_nested_document_is_invalid_input_not_a_traceback(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: document nests lists and objects deeper than")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("to", ["interim", "interim-correlated", "ex-ante"])
def test_an_oversized_companion_game_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch, to):
    path = tmp_path / "many_types.bayes.json"
    path.write_text(many_types_bayes(12))
    expectations = []
    expect = bayes._integer_expectation
    monkeypatch.setattr(bayes, "_integer_expectation", lambda *args: expectations.append(args) or expect(*args))
    start = time.perf_counter()
    assert main(["bayes", str(path), "--to", to]) == 2
    assert time.perf_counter() - start < 1
    assert expectations == []  # the size check comes before any payoff is summed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "profiles" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("label", [["a"], {"b": 1}, None, 1.5])
def test_a_container_label_is_invalid_input(tmp_path, capsys, label):
    doc = json.loads(pathlib.Path(PD).read_text(encoding="utf-8"))
    doc["players"][0] = label
    path = tmp_path / "bad_label.json"
    path.write_text(json.dumps(doc))
    assert main(["nash", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ") and "got the label" in captured.err


class _CountedReads:
    """A successor table that counts its item reads: one per node the cycle
    search pushes onto its path, the start node included."""

    def __init__(self, successors):
        self.successors = successors
        self.reads = 0

    def __len__(self):
        return len(self.successors)

    def __getitem__(self, index):
        self.reads += 1
        return self.successors[index]


@pytest.mark.parametrize("command", [["cycles"], ["cycles", "--through", "P1:s1"], ["analyze"]], ids=" ".join)
def test_a_game_with_too_many_cycles_is_an_error_not_unbounded_work(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "many_cycles.json"
    path.write_text(many_cycles_game())
    search = periodicity._cycles_from
    tables = []

    def counted(successors, *rest):
        tables.append(_CountedReads(successors))
        return search(tables[-1], *rest)

    monkeypatch.setattr(periodicity, "_cycles_from", counted)
    start = time.perf_counter()
    assert main([command[0], str(path), *command[1:], "--format", "machine"]) == 2
    assert time.perf_counter() - start < 2
    # The same bound on any machine: the search stops within a small
    # multiple of the cycle budget in path pushes.
    pushes = sum(t.reads for t in tables)
    assert 0 < pushes <= 2 * (periodicity.MAX_CYCLES + 1), pushes
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "more than 100000 cycles" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("to", ["interim", "interim-correlated"])
def test_a_companion_game_with_too_many_payoff_entries_is_an_error(tmp_path, capsys, to):
    # 8 types per player: 4**8 profiles, within the profile bound, times
    # 16 player-type pairs.
    path = tmp_path / "many_types.bayes.json"
    path.write_text(many_types_bayes(8))
    start = time.perf_counter()
    assert main(["bayes", str(path), "--to", to]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "payoff entries" in captured.err
    assert "Traceback" not in captured.err


def test_an_interim_game_over_many_distinct_masses_is_quick(tmp_path, capsys):
    # Each pair's payoffs are over du times its own mass: over the lcm of
    # the 42 masses (about 60,000 digits) every entry would be that long.
    path = tmp_path / "distinct_masses.bayes.json"
    path.write_text(distinct_masses_bayes())
    start = time.perf_counter()
    assert main(["bayes", str(path), "--to", "interim"]) == 0
    assert time.perf_counter() - start < 5
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["players"]) == 42
    # The payoff vector at (a3, a4) and the one action of each of 40 types.
    vector = functools.reduce(lambda node, _: node[0], range(40), doc["payoffs"][3][4])
    assert vector == ["-1", "4", *(["3"] * 40)]


def _one_pair_beside_many_types(types):
    """A Bayesian game document of a two-action player with one type beside
    a one-action player with ``types`` equally likely types: its interim
    game has ``types + 1`` players and two profiles."""
    doc = {
        "players": ["A", "B"],
        "actions": {"A": ["x", "y"], "B": ["b"]},
        "thetas": ["th"],
        "types": {"A": ["a"], "B": [f"t{k}" for k in range(types)]},
        "prior": [["th", ["a", f"t{k}"], f"1/{types}"] for k in range(types)],
        "payoffs": {"th": [[["1", "2"]], [["3", "-4"]]]},
    }
    return json.dumps(doc)


@pytest.mark.parametrize("types", [98, 120, 2000, 20000])
def test_bayes_writes_no_game_document_too_deep_to_read_back(tmp_path, capsys, types):
    path = tmp_path / "many.bayes.json"
    path.write_text(_one_pair_beside_many_types(types))
    start = time.perf_counter()
    assert main(["bayes", str(path), "--to", "interim"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: a game of {types + 1} players makes a document nested")


def test_bayes_writes_a_game_document_at_the_nesting_bound(tmp_path, capsys):
    path = tmp_path / "many.bayes.json"
    path.write_text(_one_pair_beside_many_types(97))
    assert main(["bayes", str(path), "--to", "interim"]) == 0
    g = parse_game(capsys.readouterr().out)
    assert g == interim_game(parse_bayes(path.read_text())) and g.num_players == 98


def test_coco_validates_the_game_once(capsys, monkeypatch):
    # Every module binding of the check is counted, not just the one the
    # Game constructor calls: the parsed game is checked once, by Game(...).
    calls = {"validate_game": 0}
    for name in calls:
        original = getattr(game, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "periodic_games"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert main(["coco", BOS, "--format", "machine"]) == 0
    assert calls == {"validate_game": 1}
    assert json.loads(capsys.readouterr().out)["vsharp"] == "3"


def test_main_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    assert main(["nash", PD]) == 0
    assert main(["coco", BOS]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    capsys.readouterr()


def test_a_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    cli.build_parser.cache_clear()
    valid = ["analyze", BOS, "--format", "machine", "--max-len", "4"]
    assert main(valid) == 0
    fresh = capsys.readouterr()
    for bad in (["analyze", BOS, "--max-len", "1"], ["analyze"], ["no-such-command"]):
        assert main(bad) == 1
        assert capsys.readouterr().out == ""
        assert main(valid) == 0
        assert capsys.readouterr() == fresh


@pytest.mark.parametrize(
    "key, labels",
    [("types", {"1": ["t1", "t1p", "t1"], "2": ["t2"]}), ("thetas", ["th", "thp", "th"])],
)
def test_duplicate_bayesian_labels_exit_code(tmp_path, capsys, key, labels):
    doc = json.loads((FIXTURES / "two_type.bayes.json").read_text())
    doc[key] = labels
    path = tmp_path / "duplicate.bayes.json"
    path.write_text(json.dumps(doc))
    for to in ("ex-ante", "interim"):
        assert main(["bayes", str(path), "--to", to]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: duplicate")
        assert "Traceback" not in captured.err


def test_a_tall_mixed_document_is_an_error_not_unbounded_work(tmp_path, capsys, monkeypatch):
    # Player A's mixture would solve C(30, 15), about 1.6e8, bases.
    doc = {
        "players": ["A", "B"],
        "actions": {"A": [f"a{k}" for k in range(30)], "B": [f"b{k}" for k in range(15)]},
        "payoffs": [[[str((3 * r + 5 * c) % 19 - 9), str((r * c) % 7)] for c in range(15)] for r in range(30)],
    }
    path = tmp_path / "tall.game.json"
    path.write_text(json.dumps(doc))
    solves = []
    solve = linalg.solve_exact
    monkeypatch.setattr(linalg, "solve_exact", lambda *args: solves.append(args) or solve(*args))
    start = time.perf_counter()
    assert main(["mixed", str(path), "--format", "machine"]) == 2
    assert time.perf_counter() - start < 1
    assert solves == []  # the limit is checked before any basis is solved
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vertex enumeration of")
    assert "Traceback" not in captured.err


def test_a_tall_low_rank_mixed_document_still_solves(tmp_path, capsys):
    # Player A's mixture solves C(60, 2) = 1,770 bases of rank 2: cheap,
    # though more bases than the 30x15 document would need at rank 3.
    doc = {
        "players": ["A", "B"],
        "actions": {"A": [f"a{k}" for k in range(60)], "B": ["b0", "b1"]},
        "payoffs": [[[str((3 * r + 5 * c) % 19 - 9), str((r * (c + 2)) % 7 - 3)] for c in range(2)] for r in range(60)],
    }
    path = tmp_path / "tall.game.json"
    path.write_text(json.dumps(doc))
    assert main(["mixed", str(path), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["periodic_mixed"]["A"]["probabilities"]) == 60


def test_cycles_longer_than_the_recursion_limit_are_reported(tmp_path, capsys):
    n = 150
    path = tmp_path / "shift.game.json"
    path.write_text(shift_game(n), encoding="utf-8")
    ids = [f"{player}:{player.lower()}{k}" for k in range(n) for player in "AB"]
    with recursion_limit(250):
        assert main(["cycles", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "cycles:\n  " + " -> ".join(ids) + "\n" and err == ""
        assert main(["cycles", str(path), "--format", "machine"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["cycles"] == [ids] and err == ""


def test_analyze_runs_no_dominance_lp_when_every_action_is_a_best_response(tmp_path, capsys, monkeypatch):
    # In the shift game every action is the unique best response to one
    # opponent action, so no action can be strictly dominated.
    calls = []
    zero_sum_value = rationalizability.zero_sum_value

    def counted(matrix, **kwargs):
        calls.append(len(matrix))
        return zero_sum_value(matrix, **kwargs)

    monkeypatch.setattr(rationalizability, "zero_sum_value", counted)
    path = tmp_path / "shift.game.json"
    path.write_text(shift_game(120), encoding="utf-8")
    assert main(["analyze", str(path), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == []
    assert report["iesds_survivors"] == {"A": sorted(f"a{k}" for k in range(120)), "B": sorted(f"b{k}" for k in range(120))}


def test_mixed_on_a_tall_one_column_document_is_quick(tmp_path, capsys, monkeypatch):
    # Each of A's 300 pure actions is a vertex of A's equalizer polytope;
    # its dimension is read off their joint support in one rank.
    path = tmp_path / "tall.game.json"
    path.write_text(tall_game(300, 1), encoding="utf-8")
    steps = []
    pivot = linalg.pivot

    def counted(rows, r, c, det):
        steps.append(len(rows) - 1)  # the rows this step reduces
        return pivot(rows, r, c, det)

    monkeypatch.setattr(linalg, "pivot", counted)
    start = time.perf_counter()
    assert main(["mixed", str(path), "--format", "machine"]) == 0
    assert time.perf_counter() - start < 1
    assert (len(steps), sum(steps)) == (304, 577)
    report = json.loads(capsys.readouterr().out)
    assert report["periodic_mixed"]["A"]["solution_dimension"] == 299
    assert report["periodic_mixed"]["B"] is None


def labelled_game(tmp_path, players, actions):
    """Matching pennies between two players with the given labels: one
    cycle through all four nodes."""
    doc = {
        "players": players,
        "actions": dict(zip(players, actions)),
        "payoffs": [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]],
    }
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_through_takes_a_node_id_whose_player_label_has_a_colon(tmp_path, capsys):
    path = labelled_game(tmp_path, ["P:1", "Q"], [["a", "b"], ["x", "y"]])
    expected = "cycles:\n  P:1:a -> Q:x -> P:1:b -> Q:y\n"
    assert main(["cycles", path]) == 0
    assert capsys.readouterr().out == expected
    assert main(["cycles", path, "--through", "P:1:a"]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("through, count", [("nope", 0), ("A", 0), ("A:x:y", 2)])
def test_through_an_id_of_no_node_or_of_two_is_an_error(tmp_path, capsys, through, count):
    # Player A's action "x:y" and player "A:x"'s action "y" share one id.
    path = labelled_game(tmp_path, ["A", "A:x"], [["x:y", "z"], ["y", "w"]])
    assert main(["cycles", path, "--through", through]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --through {through!r} is the id of {count} nodes, not of one\n"


def _options(parser) -> set[str]:
    return {o for action in parser._actions if action.dest != "help" for o in action.option_strings}


def test_each_subcommand_takes_only_the_options_it_acts_on():
    (subcommands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    graph = {"--tie-policy", "--format", "--max-len"}
    assert {name: _options(p) for name, p in subcommands.choices.items()} == {
        "analyze": graph,
        "cycles": graph | {"--through"},
        "mixed": {"--format"},
        "nash": {"--format"},
        "coco": {"--format"},
        "bayes": {"--to"},
        "check": {"--seed", "--count"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["mixed", BOS, "--tie-policy", "lex"],
        ["nash", BOS, "--tie-policy", "strict"],
        ["coco", PD, "--tie-policy", "lex"],
        ["bayes", BAYES, "--to", "interim", "--tie-policy", "lex"],
        ["mixed", BOS, "--format", "dot"],
        ["nash", BOS, "--format", "dot"],
        ["coco", PD, "--format", "dot"],
        ["bayes", BAYES, "--to", "interim", "--format", "text"],
        ["check", "--count", "1", "--format", "text"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}",
)
def test_an_option_a_command_does_not_act_on_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # An option a subcommand does not declare is left over for the top-level
    # parser; a value a subcommand's option does not take is its own error.
    assert captured.err.startswith("usage: perigame ")
    assert f"{argv[-2]}" in captured.err and "Traceback" not in captured.err


def test_the_module_exits_with_the_code_main_returns(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(periodic_games.__file__).parents[1]))
    cases = {
        0: ["check", "--count", "1"],
        1: ["analyze"],
        2: ["analyze", str(tmp_path / "missing.json")],
        3: ["analyze", flat_game(tmp_path), "--tie-policy", "strict"],
    }
    for code, argv in cases.items():
        assert main(argv) == code
        captured = capsys.readouterr()
        done = subprocess.run(
            [sys.executable, "-m", "periodic_games.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_outputs_do_not_depend_on_the_hash_seed():
    # Set and dict memos (one Fraction or text per distinct value) must not
    # leak their iteration order, which for strings follows the hash seed.
    argvs = [["bayes", str(path), "--to", to] for path in sorted(FIXTURES.glob("*.bayes.json"))
             for to in ("ex-ante", "interim")]
    for path in sorted(FIXTURES.glob("*.game.json")):
        argvs.append(["cycles", str(path), "--format", "machine"])
        if len(json.loads(path.read_text())["players"]) == 2:
            argvs.append(["coco", str(path), "--format", "machine"])
    script = (
        "import json, sys\n"
        "from periodic_games.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.stdout.write(f'{argv} exit {main(argv)}\\n')\n"
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(periodic_games.__file__).parents[1]), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == b"", done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b" exit 0\n") == len(argvs) == 13


def readme_commands() -> list[str]:
    """The ``perigame ...`` lines of the README's "Command line" section."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("perigame ")]


def test_the_readme_command_lines_parse():
    lines = readme_commands()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.build_parser().parse_args(argv).command == argv[0], line
