"""One function refuses an oversized enumeration.

``itinerary.capped`` is the only code that raises ``ResourceCapExceeded``
for a sized enumeration: every size check goes through it.  The one other
raise is ``itinerary.cantor_certificate``'s, whose own ``cap`` bounds the
words it counts on the literal maps.  A ``raise ResourceCapExceeded``
anywhere else in the package's source is flagged by function name, and an
entry of ``RAISERS`` that no longer raises fails too, so the list only
shrinks.

A planted source string with a second raise must be flagged, so the scan
cannot pass without seeing the raises it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

# "module.qualname": one line on what it refuses
RAISERS = {
    "itinerary.capped": "every enumeration sized against ENUMERATION_CAP",
    "itinerary.cantor_certificate": "the words counted past its own cap",
}

PLANTED = (
    "def _planted_check(size):\n"
    "    if size > 10:\n"
    "        raise errors.ResourceCapExceeded(f'{size} items')\n"
)


def raisers(module: str, source: str) -> set[str]:
    """``module.qualname`` of each function holding a ``raise`` of
    ``ResourceCapExceeded``, called or not, by plain or dotted name; a raise
    outside every function counts under ``module.<module>``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "ResourceCapExceeded":
                found.add(f"{module}." + (".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_raisers(extra: str = "") -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.stem == "reports":
            source += "\n\n" + extra
        found |= raisers(path.stem, source)
    return found


def flagged(found: set[str]) -> dict[str, list[str]]:
    """Raises outside ``RAISERS``, and entries that no longer raise."""
    return {
        "raisers": sorted(found - set(RAISERS)),
        "stale": sorted(set(RAISERS) - found),
    }


def test_one_function_refuses_an_oversized_enumeration():
    assert flagged(package_raisers()) == {"raisers": [], "stale": []}


def test_planted_second_raise_is_flagged():
    assert "reports._planted_check" not in package_raisers()
    assert flagged(package_raisers(PLANTED))["raisers"] == ["reports._planted_check"]


def test_scopes_name_bare_and_module_level_raises():
    source = (
        "class A:\n    def f(self):\n        raise ResourceCapExceeded\n"
        "raise ResourceCapExceeded('top')\n"
        "def g():\n    raise ValueError('other')\n"
    )
    assert raisers("m", source) == {"m.A.f", "m.<module>"}
