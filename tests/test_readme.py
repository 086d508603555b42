"""The README's Library example runs as printed."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs_and_finds_all_four_actions_periodic():
    source = _library_block()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    (call,) = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Expr) and ast.unparse(node.value).startswith("periodic_actions(")
    ]
    periodic = eval(compile(ast.Expression(call), str(README), "eval"), namespace)
    assert periodic == (frozenset({0, 1}), frozenset({0, 1}))
