"""No module of the package or of its test suite imports a name it never uses.

A stdlib ``ast`` scan: every name an ``import`` binds must be read somewhere
in the module, as a name, as the base of an attribute, inside a quoted
annotation, or by being listed in ``__all__`` (the package's re-exports).
Binding the same name, such as a dataclass field, is not a read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fanshift"
TESTS = ROOT / "tests"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(
                    n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)
                )
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from random import Random as R, choice\n"
        "from typing import Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Sequence[int]') -> float:\n"
        "    return math.pi + choice(a)\n"
        "class Visit:\n"
        "    R: float\n"
    )
    assert unused_imports(source) == ["R (line 4)", "os (line 3)"]


def test_package_modules_found():
    assert SRC / "__init__.py" in MODULES and len(MODULES) >= 10
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
