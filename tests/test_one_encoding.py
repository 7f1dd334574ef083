"""One encoding of the letters: the table in ``itinerary``.

A letter's piece and its exponent step (``Letter.steps``) are derived in
``itinerary`` alone.  Any other module of the package that names a
particular letter, a call ``Letter(a, b)`` with two integer literals, is
writing a second table beside it (the bends, say, as a dict of exponent
steps), and is flagged.  A module names letters by reading the table
(``letters_with_domain``) or by a computed index (``Letter(j, 2)``).

A planted source string with a second table must be flagged, so the scan
cannot pass without seeing the calls it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

TABLE = "itinerary"

PLANTED = "_BENDS = {Letter(2, 2): (1, 0)}\n"


def literal_letters(source: str) -> list[str]:
    """The source text of each call ``Letter(a, b)`` whose two arguments
    are integer literals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Letter"
            and len(node.args) == 2
            and all(
                isinstance(a, ast.Constant) and type(a.value) is int for a in node.args
            )
        ):
            found.append(ast.unparse(node))
    return found


def package_literals(extra: str = "") -> dict[str, list[str]]:
    """Literal letters per module outside ``itinerary``; ``extra`` is
    appended to ``reports``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.stem == "reports":
            source += "\n\n" + extra
        if path.stem != TABLE and (found := literal_letters(source)):
            out[path.stem] = found
    return out


def test_no_module_but_the_table_names_a_literal_letter():
    assert package_literals() == {}
    # the table itself names its letters, so the scan sees such calls
    assert literal_letters((SRC / f"{TABLE}.py").read_text(encoding="utf-8"))


def test_planted_second_table_is_flagged():
    assert package_literals(PLANTED) == {"reports": ["Letter(2, 2)"]}


def test_computed_and_non_integer_arguments_are_not_literal_letters():
    source = "Letter(j, 2)\nLetter(1, k + 1)\nLetter(1.0, 2)\nWord(1, 2)\n"
    assert literal_letters(source) == []
