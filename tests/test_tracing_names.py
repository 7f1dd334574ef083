"""Every function the benchmark tracer patches by name must exist.

``benchmarks/tracing.py`` looks its targets up with ``getattr`` at run time,
so deleting or renaming a traced function would only break ``run.py --trace
1``.  These tests read that file's tables (without changing anything) and
resolve each name against the package, and install the tracer in a fresh
interpreter after the imports that ``benchmarks/job.py`` makes.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"

_spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = (
    [(m, attr, None, "span") for m, attr, _, _ in tracing.SPANS]
    + [(m, path, only, "count") for m, path, only in tracing.COUNTS]
    + [(m, attr, None, "yield") for m, attr in tracing.YIELDS]
)


@pytest.mark.parametrize(
    "module, path, only, kind", TARGETS, ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_traced_name_resolves(module, path, only, kind):
    obj = importlib.import_module(f"fanshift.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    if only is not None:
        binder = importlib.import_module(f"fanshift.{only}")
        assert any(v is obj for v in vars(binder).values())
    if kind == "yield":
        assert inspect.isgeneratorfunction(obj)


# the tracer patches every fanshift module in sys.modules, so it must install
# after exactly the imports that benchmarks/job.py makes
SMOKE = r"""
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
exec(sys.argv[3])
import fanshift.impression
import tracing
orig = fanshift.impression.build_net
tracing.Tracer().install()
assert fanshift.impression.build_net is not orig, "install patched nothing"
"""


def _job_imports() -> str:
    """The ``fanshift`` import statements of ``benchmarks/job.py``."""
    tree = ast.parse((BENCH / "job.py").read_text(encoding="utf-8"))
    def from_fanshift(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("fanshift")
        return isinstance(node, ast.Import) and node.names[0].name.startswith("fanshift")

    stmts = [node for node in tree.body if from_fanshift(node)]
    assert stmts, "job.py imports nothing from fanshift"
    return "\n".join(ast.unparse(node) for node in stmts)


def test_tracer_installs_after_the_job_imports():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SMOKE, str(ROOT / "src"), str(BENCH),
         _job_imports()],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
