"""Every module of the package uses every name it imports (the package
``__init__`` is left out: it imports names only to re-export them), and only
``linalg`` turns rationals into integers with ``math.lcm``."""

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
