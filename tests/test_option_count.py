"""The package's options only go down.

Every parameter with a default, in every ``def`` and ``lambda`` of the
package's source, counts as one option, and so does every field with a
default in a ``NamedTuple`` class body.  ``OPTIONS`` pins their number.
Lower it when an option goes.  Raise it only in a change that names the
second caller that needs the new option's other value; with one value in
use, a constant does the job.

A planted source string with three parameter defaults and one field
default must raise the count by four, so the walk cannot pass without
seeing the defaults it counts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

OPTIONS = 17

PLANTED = (
    "def planted(a, b=1, *, c=2):\n    return lambda d=3: a + b + c + d\n"
    "class Planted(NamedTuple):\n    e: int\n    f: int = 4\n"
)


def package_sources() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(
        isinstance(b, ast.Name) and b.id == "NamedTuple"
        or isinstance(b, ast.Attribute) and b.attr == "NamedTuple"
        for b in node.bases
    )


def defaulted_parameters(sources: list[str]) -> int:
    """Parameters with a default, positional and keyword-only alike, plus
    ``NamedTuple`` fields with a default."""
    count = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults)
                count += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_named_tuple(node):
                count += sum(
                    isinstance(s, ast.AnnAssign) and s.value is not None
                    for s in node.body
                )
    return count


def test_option_count_is_pinned():
    assert defaulted_parameters(package_sources()) == OPTIONS


def test_planted_defaults_raise_the_count():
    sources = package_sources()
    planted = defaulted_parameters(sources + [PLANTED])
    assert planted == defaulted_parameters(sources) + 4
