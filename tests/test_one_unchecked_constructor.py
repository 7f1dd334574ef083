"""Two functions build a value without its checks.

``object.__new__`` skips a class's ``__init__`` and with it every check
there.  It is allowed in ``itinerary.Word._trusted``, for a slice of a word
already checked, and in ``mahavier._run_window``, for the window of a run
of such a word; the orbit builder and ``verify_orbit`` cut every window
they measure through the latter.  A call anywhere else in the package's
source is flagged by function name, and an entry of ``CONSTRUCTORS`` that
no longer calls it fails too, so the list only shrinks.

A planted source string with a third call must be flagged, so the scan
cannot pass without seeing the calls it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

# "module.qualname": one line on what it builds unchecked
CONSTRUCTORS = {
    "itinerary.Word._trusted": "a run of letters of an admissible word",
    "mahavier._run_window": "the window point of a run of an orbit word",
}

PLANTED = (
    "def _planted_point(word, t0):\n"
    "    p = object.__new__(MPoint)\n"
    "    return p\n"
)


def constructors(module: str, source: str) -> set[str]:
    """``module.qualname`` of each function holding a call of
    ``object.__new__``; a call outside every function counts under
    ``module.<module>``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and getattr(node.func.value, "id", None) == "object"
        ):
            found.add(f"{module}." + (".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_constructors(extra: str = "") -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.stem == "impression":
            source += "\n\n" + extra
        found |= constructors(path.stem, source)
    return found


def flagged(found: set[str]) -> dict[str, list[str]]:
    """Calls outside ``CONSTRUCTORS``, and entries that no longer call."""
    return {
        "constructors": sorted(found - set(CONSTRUCTORS)),
        "stale": sorted(set(CONSTRUCTORS) - found),
    }


def test_two_functions_build_unchecked():
    assert flagged(package_constructors()) == {"constructors": [], "stale": []}


def test_planted_third_call_is_flagged():
    assert "impression._planted_point" not in package_constructors()
    found = package_constructors(PLANTED)
    assert flagged(found)["constructors"] == ["impression._planted_point"]


def test_scopes_name_method_and_module_level_calls():
    source = (
        "class A:\n    @classmethod\n    def f(cls):\n        return object.__new__(cls)\n"
        "top = object.__new__(A)\n"
        "def g():\n    return A.__new__(A)\n"
    )
    assert constructors("m", source) == {"m.A.f", "m.<module>"}
