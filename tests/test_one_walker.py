"""One function walks a coordinate along letters.

``mahavier._steps`` is the only code that carries a local coordinate
through a run of letters.  Every reference to an attribute named
``piece`` in the package's source must sit in it, or in a function on
``ONE_STEP``, which applies a single letter and says where.  A second
walker, one more loop over ``Letter.piece``, is flagged by name.  An
entry of ``ONE_STEP`` that no longer reads ``piece`` fails too, so the
list only shrinks.

A planted source string with a second walker must be flagged, so the
scan cannot pass without seeing the references it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

WALKER = "mahavier._steps"

# "module.qualname": one line on the single letter it applies
ONE_STEP = {
    "figures.fig_relation": "applies single letters to draw their graphs",
    "mahavier.shift": "moves the base through the letter at transition 0",
    "mahavier.unshift": "moves the base back through the letter at transition -1",
    "relations.h_image": "one image per letter leaving the point's interval",
    "relations.h_preimage": "one preimage per letter entering the point's interval",
}

PLANTED = (
    "def _planted_walk(u, run):\n"
    "    for lt in run:\n"
    "        u = lt.piece(u)\n"
    "    return u\n"
)


def piece_readers(module: str, source: str) -> set[str]:
    """``module.qualname`` of each function that references an attribute
    named ``piece``; a reference outside every function counts under
    ``module.<module>``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Attribute) and node.attr == "piece":
            found.add(f"{module}." + (".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_readers(extra: str = "") -> set[str]:
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.stem == "reports":
            source += "\n\n" + extra
        readers |= piece_readers(path.stem, source)
    return readers


def flagged(readers: set[str]) -> dict[str, list[str]]:
    """Second walkers, and one-step entries that no longer read ``piece``."""
    return {
        "walkers": sorted(readers - {WALKER} - set(ONE_STEP)),
        "stale": sorted(set(ONE_STEP) - readers),
    }


def test_one_function_walks_a_coordinate_along_letters():
    readers = package_readers()
    assert flagged(readers) == {"walkers": [], "stale": []}
    assert WALKER in readers


def test_planted_second_walker_is_flagged():
    assert "reports._planted_walk" not in package_readers()
    assert flagged(package_readers(PLANTED))["walkers"] == ["reports._planted_walk"]


def test_scopes_name_methods_and_module_level_reads():
    source = (
        "class A:\n    def f(self, lt):\n        return lt.piece\n"
        "g = lambda lt: lt.piece\n"
        "def h():\n    return [lt.piece(0.5) for lt in ()]\n"
    )
    assert piece_readers("m", source) == {"m.A.f", "m.<module>", "m.h"}
