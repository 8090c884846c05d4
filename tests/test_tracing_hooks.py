"""The benchmark's tracer (perfbench/tracing.py) replaces maniplang module
attributes by name. Each one must still exist, or a traced benchmark run
crashes before it measures anything, and the call sites it counts must still
go through them, or a figure silently reads 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from maniplang import fixtures, solver
from maniplang.language import validate_program
from maniplang.scene import load_scene

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


def test_solve_evaluates_through_the_patched_name(monkeypatch):
    # costs.evaluate_calls.* counts the calls to maniplang.solver.evaluate.
    calls = []
    original = solver.evaluate

    def counted(expr, ctx):
        calls.append(expr)
        return original(expr, ctx)

    monkeypatch.setattr(solver, "evaluate", counted)
    scene = load_scene(fixtures.shipped_scene_path("cube_target"))
    expr = validate_program("move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])").typed
    solver.solve(expr, scene, solver.SolveConfig(restarts=1, max_iterations=50))
    assert calls
