"""The benchmark's tracer (perfbench/tracing.py) wraps medgcn functions at
the names listed in its BINDINGS and COUNTED tables.  Every such name must
resolve to a callable, so renaming a traced function fails here instead of
in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.BINDINGS + tracing.COUNTED],
    ids=lambda value: value,
)
def test_traced_binding_resolves_to_a_callable(owner, attr):
    assert callable(getattr(tracing._resolve(owner), attr, None))
