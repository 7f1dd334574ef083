"""The chart's formula is written once.

Interval k lands on ``[1 - 2^(2-2k), 1 - 2^(1-2k)]``.  ``xspace._Charts``
computes its low end and scale, ``xspace._chart`` reads them, and so does
the window metric, ``mahavier._window_chart``.  The low end
``1.0 - 2.0 ** (2 - 2 * k)`` written anywhere else in the package's source,
with any expression in place of ``k``, is flagged by function name.  The
scale ``2.0 ** (1 - 2 * k)`` alone is not scanned: it is also the height of
a slice (``fiber_length``, ``unpack``, ``eps_dense_check``).

A planted source string with a second copy must be flagged, so the scan
cannot pass without seeing the expression it looks for.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

HOME = "xspace._Charts.__missing__"

PLANTED = (
    "def _planted_chart(x):\n"
    "    return 1.0 - 2.0 ** (2 - 2 * x.k) + x.u * 2.0 ** (1 - 2 * x.k)\n"
)


def is_low_end(node: ast.AST) -> bool:
    """``1.0 - 2.0 ** (2 - 2 * <any expression>)``."""
    match node:
        case ast.BinOp(
            ast.Constant(1.0),
            ast.Sub(),
            ast.BinOp(
                ast.Constant(2.0),
                ast.Pow(),
                ast.BinOp(
                    ast.Constant(2),
                    ast.Sub(),
                    ast.BinOp(ast.Constant(2), ast.Mult(), _),
                ),
            ),
        ):
            return True
    return False


def low_end_writers(module: str, source: str) -> set[str]:
    """``module.qualname`` of each function that writes the chart's low end;
    a copy outside every function counts under ``module.<module>``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif is_low_end(node):
            found.add(f"{module}." + (".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_writers(extra: str = "") -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.stem == "mahavier":
            source += "\n\n" + extra
        found |= low_end_writers(path.stem, source)
    return found


def test_the_chart_low_end_is_written_once():
    assert package_writers() == {HOME}


def test_planted_second_chart_is_flagged():
    assert package_writers(PLANTED) == {HOME, "mahavier._planted_chart"}


def test_the_match_reads_the_shape_not_the_names():
    source = (
        "a = 1.0 - 2.0 ** (2 - 2 * k)\n"
        "def f(j):\n    return 1 - 2.0 ** (2 - 2 * (j + 1))\n"
        "def g(k):\n    return 1.0 - 2.0 ** (1 - 2 * k), 2.0 ** (2 - 2 * k)\n"
    )
    assert low_end_writers("m", source) == {"m.<module>", "m.f"}
