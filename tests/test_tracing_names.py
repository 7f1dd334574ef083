"""Every function the benchmark tracer patches by name must exist.

``benchmarks/tracing.py`` looks its targets up with ``getattr`` at run time,
so deleting or renaming a traced function would only break ``run.py --trace
1``.  These tests read that file's tables (without changing anything) and
resolve each name against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "_bench_tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
)
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
