"""The benchmark's tracer (perfbench/tracing.py) replaces maniplang module
attributes by name. Each one must still exist, or a traced benchmark run
crashes before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


@pytest.mark.parametrize(
    "module, attribute", [(m, a) for m, a, _ in _patch_points()], ids=lambda v: v
)
def test_patch_point_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)
