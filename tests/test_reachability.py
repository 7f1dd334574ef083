"""Every function of the package is reached by a command, or says why not.

A subprocess installs a ``sys.setprofile`` hook before it imports
``fanshift``, then runs every ``cli.COMMANDS`` entry at its defaults, every
figure of ``FIGURE_IDS``, ``schema``, and the two flag variants that read
more code: ``--a`` and ``--config``.  Every ``def`` in the package's source
must be among the code objects the hook saw, or be on ``ALLOWED`` with a
reason of one of the kinds in ``REASONS``.  An allowed function that the
sweep reaches, or that no longer exists, fails too, so the list only
shrinks.  Comprehensions and lambdas run inside the function that holds
them and are not checked on their own.

The sweep runs on a copy of the package with one planted function that
nothing calls, so the same run shows that the guard flags an unreached
function and that it flags nothing else.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

# the sweep names functions by code-object qualified names
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

SRC = Path(__file__).resolve().parents[1] / "src" / "fanshift"

PLANTED = "reports._planted_unreached"
PLANT_SOURCE = '\n\ndef _planted_unreached():\n    """Called by nothing."""\n'

REASONS = {
    "oracle": "an independent oracle that tests check the package against",
    "acceptance": "read by an acceptance criterion",
    "benchmark": "called by a benchmarks/ job or patched by its tracer",
    "failure": "runs only when a check fails or an input is rejected",
    "waiting": "waits on the transitivity certificate or the star of Cantor fans",
    "protocol": "a hook of Python's copy and pickle protocols, which no command uses",
}

# "module.qualname": (reason kind, one line on where it is used)
ALLOWED = {
    "invariants._BundleScan.clusters": ("failure", "oracle_agreement reports a missed leg"),
    "mahavier.coord_range": ("acceptance", "criterion 5 through coords; a tracer span"),
    "mahavier.coords": ("acceptance", "criterion 5 reads zero-height coordinates"),
    "mahavier.model_map": ("benchmark", "shift-check job and tracer counter"),
    "mahavier.pack": ("acceptance", "criterion 5 round-trips heights through it"),
    "quotients.AParam.all_params": ("benchmark", "fan-census and distinguish-all jobs"),
    "quotients.check_conjugated_shift": ("benchmark", "shift-check job and tracer span"),
    "quotients.density_transfer_report": ("benchmark", "shift-check job and tracer span"),
    "quotients.phi_pair": ("benchmark", "density_transfer_report in the shift-check job"),
    "quotients.star_of": ("waiting", "the star of Cantor fans"),
    "relations.in_H": ("oracle", "the literal relation the letter table is checked against"),
    "xspace.XPoint.ambient": ("acceptance", "criterion 5 reads ambient positions"),
    "xspace.dist": ("benchmark", "tracer counter; the chart metric of the tests"),
    "xspace._Frozen.__setattr__": ("failure", "rejects assigning to an immutable value"),
    "xspace._Frozen.__setstate__": ("protocol", "copy and pickle restore a value"),
}

SWEEP = r"""
import json, os, sys

codes = set()
sys.setprofile(lambda frame, event, arg, add=codes.add: add(frame.f_code))

import fanshift
from fanshift import cli
from fanshift.figures import FIGURE_IDS

root, out = sys.argv[1], sys.argv[2]
work = os.path.dirname(out)
config = os.path.join(work, "cantor.conf")
with open(config, "w", encoding="utf-8") as fh:
    fh.write("# a comment\nkmax = 2\ndepth = 4\n")
runs = [["verify", name, "--report", os.path.join(work, name + ".json")]
        for name in cli.COMMANDS]
runs += [["render", fig, "--out", os.path.join(work, fig + ".svg")]
         for fig in FIGURE_IDS]
runs += [
    ["schema"],
    ["render", "glue", "--a", "1,3", "--out", os.path.join(work, "glue-a.svg")],
    ["verify", "cantor", "--config", config, "--report", os.path.join(work, "c.json")],
]
for argv in runs:
    cli.main(argv)
sys.setprofile(None)

if os.path.dirname(os.path.abspath(fanshift.__file__)) != root:
    sys.exit(f"fanshift imported from {fanshift.__file__}, not {root}")
reached = sorted({
    os.path.splitext(os.path.basename(c.co_filename))[0] + "." + c.co_qualname
    for c in codes
    if os.path.dirname(os.path.abspath(c.co_filename)) == root
})
with open(out, "w", encoding="utf-8") as fh:
    json.dump(reached, fh)
"""


def defined_functions(package: Path) -> set[str]:
    """``module.qualname`` of every ``def`` in the package's source files."""
    names: list[str] = []

    def walk(code: types.CodeType, module: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if not const.co_name.startswith("<"):
                    names.append(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    assert len(names) == len(set(names)), "two defs share a qualified name"
    return set(names)


def flagged(defined: set[str], reached: set[str], allowed) -> dict[str, list[str]]:
    """What the guard rejects: unreached and not allowed, allowed but
    reached, and allowed but not defined."""
    return {
        "unreached": sorted(defined - reached - set(allowed)),
        "allowed but reached": sorted(set(allowed) & reached),
        "allowed but not defined": sorted(set(allowed) - defined),
    }


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Defined and reached functions of a planted copy of the package."""
    tmp = tmp_path_factory.mktemp("reach")
    package = tmp / "src" / "fanshift"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "reports.py", "a", encoding="utf-8") as fh:
        fh.write(PLANT_SOURCE)
    out = tmp / "work" / "reached.json"
    out.parent.mkdir()
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("FANSHIFT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, str(package), str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return defined_functions(package), set(json.loads(out.read_text(encoding="utf-8")))


def test_every_function_is_reached_or_allowed(sweep):
    defined, reached = sweep
    assert flagged(defined - {PLANTED}, reached, ALLOWED) == {
        "unreached": [], "allowed but reached": [], "allowed but not defined": [],
    }


def test_planted_unreached_function_is_flagged(sweep):
    defined, reached = sweep
    assert PLANTED in defined
    assert flagged(defined, reached, ALLOWED)["unreached"] == [PLANTED]


def test_sweep_runs_every_command(sweep):
    from fanshift import cli

    _, reached = sweep
    runners = {f"cli.{run.__qualname__}" for run, _ in cli.COMMANDS.values()}
    assert runners | {"figures.render_figure", "reports.schema_text"} <= reached


def test_allow_list_reasons_are_known():
    assert all(kind in REASONS and note for kind, note in ALLOWED.values())


def test_flagged_reports_each_kind():
    got = flagged({"m.a", "m.b", "m.c"}, {"m.a", "m.b"}, {"m.b": 0, "m.d": 0})
    assert got == {
        "unreached": ["m.c"],
        "allowed but reached": ["m.b"],
        "allowed but not defined": ["m.d"],
    }
