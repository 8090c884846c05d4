"""The benchmark's tracer (perfbench/tracing.py) replaces maniplang module
attributes by name. Each one must still exist, or a traced benchmark run
crashes before it measures anything, and the call sites it counts must still
go through them, or a figure silently reads 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from maniplang import costs, fixtures, retrieval, solver
from maniplang.costs import EvalContext, evaluate
from maniplang.language import parse, parser, typecheck, validate_program
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


def _counted(monkeypatch, module, attribute):
    """Route `module.attribute` through a wrapper; returns its list of calls."""
    calls = []
    original = getattr(module, attribute)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, attribute, counted)
    return calls


def test_parse_tokenizes_through_the_patched_name(monkeypatch):
    # language.tokenize spans wrap maniplang.language.parser.tokenize.
    calls = _counted(monkeypatch, parser, "tokenize")
    parse("move_cost(get_centroid('cube'), get_centroid('target'))")
    assert len(calls) == 1


def test_validate_program_parses_through_the_patched_name(monkeypatch):
    # language.parse spans wrap maniplang.language.typecheck.parse.
    calls = _counted(monkeypatch, typecheck, "parse")
    assert validate_program("move_cost(get_centroid('cube'), get_centroid('target'))")
    assert len(calls) == 1


def test_rotate_cost_measures_through_the_patched_name(monkeypatch):
    # geometry.angle_between spans wrap maniplang.costs.angle_between.
    calls = _counted(monkeypatch, costs, "angle_between")
    scene = load_scene(fixtures.shipped_scene_path("pen_holder"))
    expr = validate_program("rotate_cost(get_axis('pen'), 1.0, get_axis('pen holder'))").typed
    evaluate(expr, EvalContext(scene))
    assert len(calls) == 1


def test_a_paraphrase_resolves_through_two_patched_retrieves(monkeypatch):
    # retrieval.retrieve spans wrap maniplang.retrieval.retrieve: one hop into
    # the part database, one into the scene's names.
    calls = _counted(monkeypatch, retrieval, "retrieve")
    scene = load_scene(fixtures.shipped_scene_path("teapot_lid"))
    resolver = retrieval.make_part_resolver(scene, retrieval.load_database(fixtures.shipped_part_database_path()))
    assert resolver("teapot oppening") is scene.parts["teapot opening"]
    assert len(calls) == 2
