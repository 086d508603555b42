"""Every module of the package uses every name it imports (the package
``__init__`` is left out: it imports names only to re-export them), only
``linalg`` turns rationals into integers with ``math.lcm``, only ``lp``
holds a float literal (its support guess), no object is
built past its constructor, so every ``Game`` passes ``validate_game``, and
no function calls itself, so a deep input meets no recursion limit in the
package's own code, and every absolute import names a standard library
module, so the package has no third-party runtime dependency."""

import ast
import pathlib
import sys

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


def float_constants(source: str) -> list[float]:
    """The float and complex literals of a module."""
    nodes = ast.walk(ast.parse(source))
    return [node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]


def test_checker_finds_float_constants():
    source = "x = 1e-9\ny = [0.5, 2, '1.5', -3.0j]\nz = 1 / 2\n"
    assert float_constants(source) == [1e-9, 0.5, 3.0j]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_lp_holds_a_float_constant(path):
    # The float support guess of lp.simplex_max is the one place floats
    # enter; every reported value is computed and checked in integers.
    assert bool(float_constants(path.read_text(encoding="utf-8"))) == (path.name == "lp.py")


def constructor_bypasses(source: str) -> list[str]:
    """The ``__new__``, ``__dict__`` and ``__setattr__`` attributes a module
    reads or writes: the ways to make an object without running its
    ``__init__`` or to set a field of a frozen dataclass."""
    names = {"__new__", "__dict__", "__setattr__"}
    nodes = ast.walk(ast.parse(source))
    return sorted(node.attr for node in nodes if isinstance(node, ast.Attribute) and node.attr in names)


def test_checker_finds_constructor_bypasses():
    source = (
        "class Game:\n"
        "    def __new__(cls):\n        return object.__new__(cls)\n"
        "def build(cls):\n"
        "    g = cls.__new__(cls)\n"
        "    g.__dict__.update(players=())\n"
        "    g.__dict__['payoffs'] = ()\n"
        "    object.__setattr__(g, 'actions', ())\n"
        "    return vars(g), g.__class__\n"
    )
    assert constructor_bypasses(source) == ["__dict__", "__dict__", "__new__", "__new__", "__setattr__"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_object_is_built_past_its_constructor(path):
    assert constructor_bypasses(path.read_text(encoding="utf-8")) == []


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


def third_party_imports(source: str) -> list[str]:
    """The top-level modules a source imports absolutely that are not in the
    standard library (``sys.stdlib_module_names``); relative imports are the
    package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_checker_finds_third_party_imports():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\nfrom . import game\n"
        "from .linalg import pivot\nfrom scipy.optimize import linprog\nimport xml.dom\n"
        "def f():\n    import sympy\n"
    )
    assert third_party_imports(source) == ["numpy", "scipy", "sympy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == []
