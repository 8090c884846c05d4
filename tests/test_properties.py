"""Property tests: parse/print round trips, rigid invariance of the cost
words, an alignment identity, the solver's objective against plain
evaluation of the moved scene, and the solver's never-worse guarantee."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maniplang import solver
from maniplang.costs import EvalContext, EvalError, evaluate
from maniplang.geometry import GeometryError, Point3, PointCloud, PoseSE3, euler_from_rotation, rotation_xyz
from maniplang.language import BinOp, Call, Literal, Neg, Triple, parse, to_source, type_check
from maniplang.scene import Scene, SceneSnapshot
from maniplang.solver import (
    SolveConfig,
    initial_pose,
    objective,
    objective_terms,
    partition_moving_static,
    solve,
    transform_scene,
)

from util import random_rotation

# -- parse(to_source(e)) == e ---------------------------------------------------

_names = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
# Numbers lex unsigned (a leading minus is a Neg node); strings print in
# double quotes and may not span lines.
_numbers = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs)
_strings = st.text(
    st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=12
)
_leaves = st.one_of(_numbers.map(Literal), _strings.map(Literal))


def _compound(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda items: Triple(tuple(items))),
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*"), children, children),
        st.builds(
            Call,
            _names,
            st.lists(children, max_size=3).map(tuple),
            st.lists(st.tuples(_names, children), max_size=2).map(tuple),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _compound, max_leaves=16))
def test_print_then_parse_is_identity(expr):
    assert parse(to_source(expr)) == expr


# -- rigid invariance -------------------------------------------------------------

# Offsets are built from scene directions so they move with the scene.
RIGID_PROGRAMS = {
    "move_cost": "move_cost(get_centroid('a'), get_centroid('b'), "
    "offset=direction_of('b', 'c') * 0.1)",
    "move_cost_with_offset": "move_cost_with_offset('a', offset=direction_of('b', 'c') * 0.05)",
    "move_cost_from_history": "move_cost('gripper', centroid_last('gripper') + "
    "direction_of(start='b', end='gripper') * 0.15)",
    "parallel_cost": "parallel_cost(get_axis('a'), get_axis('b'))",
    "perpendicular_cost": "perpendicular_cost(get_axis('a'), direction_of('b', 'c'))",
    "rotate_cost": "rotate_cost(direction_of('a', 'b'), 0.7, direction_of('a', 'c'))",
    "orbit_cost": "orbit_cost('b', 0.1, 'a')",
    "gripper_open_cost": "gripper_open_cost()",
    "gripper_close_first_cost": "gripper_close_first_cost()",
}
# upright_cost compares against the world's up axis, so only motions that
# keep that axis (a turn about z plus a shift) leave it unchanged.
UPRIGHT_PROGRAM = "upright_cost('a', 'b')"

_angles = st.floats(min_value=-math.pi, max_value=math.pi)
_shifts = st.floats(min_value=-1.0, max_value=1.0)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _elongated_cloud(rng, n=200):
    """A box with distinct extents, so its principal axis is well separated."""
    coords = rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array([0.2, 0.05, 0.02])
    return coords @ random_rotation(rng).T + rng.uniform(-0.5, 0.5, size=3)


def _random_scene(seed: int) -> Scene:
    rng = np.random.default_rng(seed)
    parts = {name: PointCloud(_elongated_cloud(rng)) for name in ("a", "b", "c")}
    snapshot = SceneSnapshot(
        Point3(*rng.uniform(-0.5, 0.5, size=3)),
        {name: Point3(*rng.uniform(-0.5, 0.5, size=3)) for name in parts},
    )
    return Scene(
        parts=parts,
        grasped=frozenset({"a"}),
        gripper_position=Point3(*rng.uniform(-0.5, 0.5, size=3)),
        gripper_open_fraction=float(rng.uniform(0.0, 1.0)),
        history=(snapshot,),
    )


def _moved(scene: Scene, rotation: np.ndarray, shift) -> Scene:
    """Every part, the gripper and each history entry under one rigid motion."""

    def point(p: Point3) -> Point3:
        return Point3.from_array(rotation @ p.as_array() + shift)

    return Scene(
        parts={
            name: PointCloud(cloud.coords @ rotation.T + shift)
            for name, cloud in scene.parts.items()
        },
        grasped=scene.grasped,
        gripper_position=point(scene.gripper_position),
        gripper_open_fraction=scene.gripper_open_fraction,
        history=tuple(
            SceneSnapshot(
                point(snap.gripper_position),
                {name: point(c) for name, c in snap.part_centroids.items()},
            )
            for snap in scene.history
        ),
    )


def _cost(source: str, scene: Scene) -> float:
    return evaluate(type_check(parse(source)), EvalContext(scene))


@pytest.mark.parametrize("word", sorted(RIGID_PROGRAMS))
@settings(max_examples=30, deadline=None)
@given(seed=_seeds, angles=st.tuples(_angles, _angles, _angles),
       shift=st.tuples(_shifts, _shifts, _shifts))
def test_cost_word_is_rigid_invariant(word, seed, angles, shift):
    scene = _random_scene(seed)
    moved = _moved(scene, rotation_xyz(*angles), np.array(shift))
    source = RIGID_PROGRAMS[word]
    assert _cost(source, moved) == pytest.approx(_cost(source, scene), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, yaw=_angles, shift=st.tuples(_shifts, _shifts, _shifts))
def test_upright_cost_is_invariant_under_motions_keeping_up(seed, yaw, shift):
    scene = _random_scene(seed)
    moved = _moved(scene, rotation_xyz(0.0, 0.0, yaw), np.array(shift))
    assert _cost(UPRIGHT_PROGRAM, moved) == pytest.approx(
        _cost(UPRIGHT_PROGRAM, scene), abs=1e-9
    )


# -- parallel + perpendicular == 1 -------------------------------------------------

_components = st.floats(min_value=-10.0, max_value=10.0)
_vectors = st.tuples(_components, _components, _components).filter(
    lambda v: np.linalg.norm(v) > 1e-6
)


@settings(deadline=None)
@given(first=_vectors, second=_vectors)
def test_parallel_plus_perpendicular_is_one(first, second):
    ctx = EvalContext(_random_scene(0))
    args = tuple(Triple(tuple(Literal(x) for x in v)) for v in (first, second))
    parallel = evaluate(type_check(Call("parallel_cost", args)), ctx)
    perpendicular = evaluate(type_check(Call("perpendicular_cost", args)), ctx)
    assert parallel + perpendicular == pytest.approx(1.0, abs=1e-12)


# -- objective_terms agrees with evaluating the moved scene ------------------------

# 'a' is grasped and moves, 'b' and 'c' stay put. Every cost word, and every
# getter on the moving part; rotate_cost reads the axis sign; a scalar that
# depends on the pose scales a static vector and is negated.
POSED_PROGRAMS = {
    "move_cost": "move_cost(get_centroid('a'), get_centroid('b'), "
    "offset=direction_of('c', 'a') * 0.1)",
    "move_cost_with_offset": "move_cost_with_offset('a', offset=[0, 0, get_height('a')])",
    "centroid_last": "move_cost(centroid_last('a') + centroid_last('gripper'), get_gripper_pos())",
    "extents": "move_cost([get_length('a'), get_width('a'), get_height('a')], "
    "[get_length('b'), get_width('b'), get_height('b')])",
    "parallel_cost": "parallel_cost(get_axis('a'), get_axis('b'))",
    "perpendicular_cost": "perpendicular_cost(get_axis('a'), direction_of('b', 'a'))",
    "rotate_cost": "rotate_cost(get_axis('a'), 0.7, get_axis('b'))",
    "orbit_cost": "orbit_cost('a', 0.1, 'b')",
    "upright_cost": "upright_cost('a', 'b')",
    "gripper_costs": "gripper_open_cost() + gripper_close_first_cost()",
    "pose_scalars": "move_cost(get_centroid('a'), get_centroid('b'), "
    "offset=direction_of('c', 'b') * get_height('a') + [0, 0, -get_width('a')])",
}
# 'd' (static) and 'a tip' (rides with 'a') are single points: no axis.
ERROR_PROGRAMS = {
    "missing_part": "move_cost(get_centroid('a'), get_centroid('nowhere'))",
    "missing_in_history": "move_cost_with_offset('nowhere', offset=[0, 0, 0.1])",
    "static_degenerate_axis": "parallel_cost(get_axis('a'), get_axis('d'))",
    "moving_degenerate_axis": "rotate_cost(get_axis('a tip'), 0.3, get_axis('b'))",
    # Both paths append the pre-move snapshot, so neither raises here.
    "empty_history": "move_cost_with_offset('a', offset=[0, 0, 0.1])",
}


def _pose(scene: Scene, angles, shift) -> PoseSE3:
    t = scene.gripper_position.as_array() + np.array(shift)
    return PoseSE3(rotation_xyz(*angles), Point3.from_array(t))


def _plain_terms(expr, scene: Scene, pose: PoseSE3, cfg: SolveConfig) -> tuple[float, float]:
    """(objective, cost) by moving the clouds and evaluating from scratch."""
    cost = evaluate(expr, EvalContext(transform_scene(scene, pose)))
    reg_t = float(np.linalg.norm(pose.translation.as_array() - scene.gripper_position.as_array()))
    reg_r = float(np.abs(euler_from_rotation(pose.rotation).as_array()).sum())
    return cost + cfg.alpha * reg_t + cfg.beta * reg_r, cost


def _batch_terms(expr, scene: Scene, poses, cfg: SolveConfig) -> list[tuple[float, float]]:
    """(objective, cost) at each pose, from one call of the solver's objective
    on the stack of poses."""
    ctx = solver._PosedContext(scene, partition_moving_static(scene)[0])
    rel = np.stack([pose.rotation for pose in poses])
    t = np.stack([pose.translation.as_array() for pose in poses])
    obj, cost, _, _ = np.broadcast_arrays(*solver._terms(expr, ctx, rel, t, t - ctx.t0, cfg))
    return list(zip(obj.tolist(), cost.tolist()))


def _outcome(fn):
    try:
        return fn()
    except (EvalError, GeometryError) as exc:
        return type(exc)


_poses = st.tuples(st.tuples(_angles, _angles, _angles), st.tuples(_shifts, _shifts, _shifts))


@pytest.mark.parametrize("word", sorted(POSED_PROGRAMS))
@settings(max_examples=25, deadline=None)
@given(seed=_seeds, drawn=st.lists(_poses, min_size=1, max_size=5))
def test_objective_terms_match_the_moved_scene(word, seed, drawn):
    scene = _random_scene(seed)
    poses = [_pose(scene, angles, shift) for angles, shift in drawn]
    expr = type_check(parse(POSED_PROGRAMS[word]))
    cfg = SolveConfig()
    for pose, (obj, cost) in zip(poses, _batch_terms(expr, scene, poses, cfg)):
        plain_obj, plain_cost = _plain_terms(expr, scene, pose, cfg)
        assert cost == pytest.approx(plain_cost, abs=1e-12)
        assert obj == pytest.approx(plain_obj, abs=1e-12)
        # A row of the stack is exactly the pose scored on its own.
        assert (obj, cost) == objective_terms(expr, scene, pose, cfg)[:2]


@pytest.mark.parametrize("case", sorted(ERROR_PROGRAMS))
@settings(max_examples=10, deadline=None)
@given(seed=_seeds, angles=st.tuples(_angles, _angles, _angles),
       shift=st.tuples(_shifts, _shifts, _shifts))
def test_objective_terms_fail_like_the_moved_scene(case, seed, angles, shift):
    base = _random_scene(seed)
    point = base.parts["b"].coords[:1]
    scene = Scene(
        parts={**base.parts, "d": PointCloud(point), "a tip": PointCloud(np.repeat(point, 3, axis=0))},
        grasped=base.grasped,
        gripper_position=base.gripper_position,
        gripper_open_fraction=base.gripper_open_fraction,
        history=() if case == "empty_history" else base.history,
    )
    pose = _pose(scene, angles, shift)
    expr = type_check(parse(ERROR_PROGRAMS[case]))
    cfg = SolveConfig()
    posed = _outcome(lambda: objective_terms(expr, scene, pose, cfg)[:2])
    plain = _outcome(lambda: _plain_terms(expr, scene, pose, cfg))
    if isinstance(plain, type):
        assert posed is plain
    else:
        assert posed == pytest.approx(plain, abs=1e-12)
    if case in ("missing_part", "static_degenerate_axis"):
        # Every pose fails, so the solve raises what its first evaluation does.
        with pytest.raises(posed) as raised:
            solve(expr, scene, SolveConfig(restarts=2, max_iterations=30))
        assert raised.type is posed


# -- solve never returns worse than the initial pose -------------------------------

SOLVE_PROGRAMS = (
    "move_cost(get_centroid('a'), get_centroid('b'), offset=[0, 0, 0.1])",
    "parallel_cost(get_axis('a'), get_axis('b')) + move_cost('gripper', 'c')",
    "perpendicular_cost(get_axis('a'), [0, 0, 1]) + orbit_cost('b', 0.2, 'a')",
)


@settings(max_examples=10, deadline=None)
@given(
    seed=_seeds,
    program=st.sampled_from(SOLVE_PROGRAMS),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=0.0, max_value=1.0),
)
def test_solve_is_never_worse_than_initial_pose(seed, program, alpha, beta):
    scene = _random_scene(seed)
    expr = type_check(parse(program))
    cfg = SolveConfig(alpha=alpha, beta=beta, restarts=2, max_iterations=200, seed=seed)
    start = objective(expr, scene, initial_pose(scene), cfg)
    # The reported objective is recomputed at the returned pose, whose
    # translation round-trips through t0 + dt: allow that rounding.
    assert solve(expr, scene, cfg).objective <= start + 1e-12


# -- the lockstep search takes the steps of the one-probe-at-a-time search ----------


def _sequential_search(f, x0, cfg: SolveConfig, rng):
    """Reference: the pattern search scoring one probe per call of f, as the
    solver ran before polls were batched. Returns (x, fx, evaluations)."""
    evals = [0]

    def poll(x, fx, scale, directions):
        improved = False
        for direction in directions:
            if evals[0] >= cfg.max_iterations:
                break
            for sign in (1.0, -1.0):
                trial = x + sign * scale * direction
                ft = f(trial)
                evals[0] += 1
                if ft < fx:
                    x, fx, improved = trial, ft, True
                    break
                if evals[0] >= cfg.max_iterations:
                    break
        return x, fx, improved

    steps = np.array([0.25] * 3 + [0.1] * 3)
    x = np.array(x0, dtype=float)
    fx = f(x)
    evals[0] += 1
    shrink = 1.0
    while evals[0] < cfg.max_iterations:
        cycle_start = fx
        x1, fx1, improved = poll(x, fx, steps * shrink, np.eye(6))
        if not improved and evals[0] < cfg.max_iterations:
            directions = rng.normal(size=(12, 6))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            x1, fx1, improved = poll(x1, fx1, steps * shrink, directions)
        while improved and evals[0] < cfg.max_iterations and np.any(x1 - x):
            trial = x1 + (x1 - x)
            ft = f(trial)
            evals[0] += 1
            if not ft < fx1:
                break
            x, fx, x1, fx1 = x1, fx1, trial, ft
        x, fx = x1, fx1
        if cycle_start - fx < cfg.tolerance:
            if shrink * 0.25 <= 1e-7:
                break
            shrink *= 0.5
    return x, fx, evals[0]


@settings(max_examples=8, deadline=None)
@given(seed=_seeds, program=st.sampled_from(SOLVE_PROGRAMS), restarts=st.sampled_from((1, 3, 10)))
def test_solve_takes_the_sequential_search(seed, program, restarts):
    scene = _random_scene(seed)
    expr = type_check(parse(program))
    cfg = SolveConfig(restarts=restarts, max_iterations=150, seed=seed)
    ctx = solver._PosedContext(scene, partition_moving_static(scene)[0])

    def f(x):
        (value,) = solver._objective_rows(expr, ctx, x[None], cfg)
        return value

    rng = np.random.default_rng(seed)
    starts = [np.zeros(6)] + [
        np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 3), rng.uniform(-0.2, 0.2, 3)])
        for _ in range(restarts - 1)
    ]
    runs = [
        _sequential_search(f, start, cfg, np.random.default_rng((seed, index)))
        for index, start in enumerate(starts)
    ]
    best = min(range(restarts), key=lambda index: (runs[index][1], index))
    x, _, evals = runs[best]
    result = solve(expr, scene, cfg)
    assert (result.restart_index, result.iterations) == (best, evals)
    assert result.total_evaluations == sum(run[2] for run in runs)
    assert np.array_equal(result.pose.rotation, rotation_xyz(x[0], x[1], x[2]))
    assert result.pose.translation == Point3.from_array(ctx.t0 + x[3:])
