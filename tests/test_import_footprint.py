"""Importing the CLI loads only what its commands need.

A fresh ``python3 -I`` imports ``fanshift.cli`` and reports its
``sys.modules``.  ``dataclasses``, ``fractions``, ``inspect`` (which
``dataclasses`` pulls in) and ``heapq`` (which no module imports: orbit
steering walks its exponent table by index) must be absent, and
``impression`` must not have built that table, which only orbit steering
reads.  So that the check cannot pass vacuously,
modules that the CLI does import must be present, and a run that imports
``dataclasses`` before the CLI must be flagged.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ABSENT = ("dataclasses", "fractions", "inspect", "heapq")
PRESENT = ("fanshift.quotients", "fanshift.relations")

PROBE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
import fanshift.cli
from fanshift import impression
print(json.dumps({
    "modules": sorted(sys.modules),
    "exponents_built": impression._exponents.cache_info().currsize > 0,
}))
"""


def footprint(prelude: str = "") -> dict:
    """Modules loaded by a fresh interpreter that runs ``prelude``, then
    imports ``fanshift.cli``; and whether the exponent table was built."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC), prelude],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def problems(found: dict) -> list[str]:
    """What the guard rejects in one footprint."""
    modules = set(found["modules"])
    out = [f"imports {m}" for m in ABSENT if m in modules]
    out += [f"does not import {m}" for m in PRESENT if m not in modules]
    if found["exponents_built"]:
        out.append("builds the exponent table")
    return out


def test_cli_import_footprint():
    assert problems(footprint()) == []


def test_footprint_flags_an_earlier_dataclasses_import():
    got = problems(footprint("import dataclasses"))
    assert "imports dataclasses" in got and "imports inspect" in got


def test_footprint_flags_a_built_exponent_table():
    prelude = "import fanshift.impression; fanshift.impression._exponents()"
    assert problems(footprint(prelude)) == ["builds the exponent table"]
