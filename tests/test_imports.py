"""Every module of the package uses every name it imports (the package
``__init__`` is left out: it imports names only to re-export them), only
``linalg`` turns rationals into integers with ``math.lcm``, and no function
calls itself, so a deep input meets no recursion limit in the package's own code."""

import ast
import pathlib

import pytest

import periodic_games

PACKAGE = pathlib.Path(periodic_games.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom x import a, b as c\nc(a.d)\n"
    assert unused_imports(source) == ["j", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def lcm_uses(source: str) -> int:
    """References to ``math.lcm``, as an attribute or as an imported name."""
    tree = ast.parse(source)
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lcm":
            count += isinstance(node.value, ast.Name) and node.value.id == "math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            count += sum(alias.name == "lcm" for alias in node.names)
    return count


def test_checker_finds_lcm_uses():
    assert lcm_uses("import math\nmath.lcm(2, 3)\nfrom math import lcm, prod\nmath.gcd(1)\n") == 2


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_scales_rationals_to_integers(path):
    uses = lcm_uses(path.read_text(encoding="utf-8"))
    assert (uses > 0) == (path.name == "linalg.py")


def _calls(node: ast.AST, name: str) -> bool:
    """Whether a node is a call of ``name`` or of ``self.name``/``cls.name``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == name
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    )


def self_calls(source: str) -> list[str]:
    """Dotted names of the functions, nested ones included, whose body
    calls the function itself by name."""
    found = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(_calls(sub, child.name) for sub in ast.walk(child)):
                    found.append(name)
                stack.append((child, name + "."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))
    return sorted(found)


def test_checker_finds_functions_that_call_themselves():
    source = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
        "def outer(xs):\n"
        "    def walk(x):\n        return [walk(y) for y in x]\n"
        "    return walk(xs)\n"
        "class Tree:\n"
        "    def size(self):\n        return 1 + sum(c.size() for c in self.children)\n"
        "    def depth(self):\n        return self.depth()\n"
        "def apply(f):\n    return f(apply)\n"
        "def flat(x):\n    return flatten(x)\n"
    )
    assert self_calls(source) == ["Tree.depth", "fact", "outer.walk"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []
