"""Property tests: parse/print round trips, well-typed programs drawn from
the vocabulary and the grammar (accepted, and evaluated or refused with a
typed error), the same programs with one defect shape (rejected) or a scaled
list added to a point (accepted), rigid invariance of the cost words, an
alignment identity, the solver's objective against plain evaluation of the
moved scene (also for drawn programs), the translation analysis and its
closed-form optimum, the solver's never-worse guarantee, the centroid against
numpy's mean, extents over the kept extreme points against the whole cloud's,
and scene documents drawn as JSON (only SceneError)."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maniplang import fixtures, solver
from maniplang.costs import EvalContext, EvalError, evaluate, translation_term
from maniplang.errors import ManiplangError
from maniplang.geometry import (
    GeometryError, Point3, PointCloud, PoseSE3, centroid, euler_from_rotation, extreme_points, rotated_extent,
    rotation_xyz,
)
from maniplang.language import (
    Accepted, BinOp, Call, Literal, Neg, Triple, TypeCheckError, default_grammar, default_vocabulary, parse, to_source,
    type_check, typecheck, validate_program,
)
from maniplang.scene import Scene, SceneError, SceneSnapshot, load_scene, scene_from_json
from maniplang.solver import (
    SolveConfig,
    initial_pose,
    objective,
    objective_terms,
    solve,
    transform_scene,
)

from util import random_rotation

# -- parse(to_source(e)) == e ---------------------------------------------------

_names = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
# Numbers lex unsigned (a leading minus is a Neg node); a string may hold
# either quote kind but not both, and may not span lines.
_numbers = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs)
_strings = st.sampled_from("\"'").flatmap(
    lambda quote: st.text(st.characters(blacklist_characters=quote + "\n", blacklist_categories=("Cs",)), max_size=12)
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


# -- well-typed programs drawn from the vocabulary and the grammar -----------------

# A program of a sort is a word call with that result sort, or a grammar rule
# with that left-hand side; part names come from one shipped scene, so that
# most programs evaluate to a number there.
_SCENE = load_scene(fixtures.shipped_scene_path("carrot_knife"))
_PART_NAMES = st.sampled_from(sorted(_SCENE.parts) + ["gripper"])
_NUMBERS = st.floats(min_value=0.0, max_value=2.0).map(lambda x: round(x, 3))
_LEAVES = {  # a number lexes unsigned
    "number": _NUMBERS.map(Literal),
    "string": _PART_NAMES.map(Literal),
    "triple": st.lists(_NUMBERS.map(Literal), min_size=3, max_size=3).map(lambda items: Triple(tuple(items))),
}
_MAX_DEPTH = 3


@st.composite
def _call(draw, word, depth):
    params = [p for p in word.params if p.required or draw(st.booleans())]
    # Positional arguments bind the signature's leading parameters.
    prefix = next((i for i, (p, q) in enumerate(zip(params, word.params)) if p != q), len(params))
    positional = draw(st.integers(0, prefix))
    args = [draw(_typed(p.sort, depth - 1)) for p in params]
    kwargs = tuple((p.name, arg) for p, arg in zip(params[positional:], args[positional:]))
    return Call(word.name, tuple(args[:positional]), kwargs)


@functools.cache
def _typed(sort, depth=_MAX_DEPTH):
    """Expressions of `sort`, nested at most `depth` calls and operators deep."""
    if sort == "string":
        return _LEAVES["string"]
    options = [_LEAVES["number"]] if sort == "scalar" else []
    for word in default_vocabulary().words:
        if word.result_sort == sort and (depth > 0 or all(p.sort == "string" for p in word.params)):
            options.append(_call(word, depth))
    for rule in default_grammar():
        if rule.lhs != sort:
            continue
        if len(rule.rhs) == 1:
            options.append(_LEAVES[rule.rhs[0]])
        elif depth > 0 and len(rule.rhs) == 2:
            options.append(st.builds(Neg, _typed(rule.rhs[1], depth - 1)))
        elif depth > 0:
            left, op, right = rule.rhs
            options.append(st.builds(BinOp, st.just(op), _typed(left, depth - 1), _typed(right, depth - 1)))
    return st.one_of(options)


# (sort, program): a cost expression, or a void gripper action standing alone
_programs = st.one_of([_typed(sort).map(lambda expr, sort=sort: (sort, expr)) for sort in ("cost", "void")])


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_drawn_program_is_accepted_and_round_trips(program):
    sort, expr = program
    source = to_source(expr)
    verdict = validate_program(source)
    assert isinstance(verdict, Accepted), (source, verdict.reason)
    assert verdict.typed.sort == sort
    assert parse(source) == expr


@settings(max_examples=100, deadline=None)
@given(_typed("cost"))
def test_drawn_cost_evaluates_to_a_finite_non_negative_float_or_raises(expr):
    typed = validate_program(to_source(expr)).typed
    try:
        value = evaluate(typed, EvalContext(_SCENE))
    except ManiplangError:
        return
    assert isinstance(value, float) and math.isfinite(value) and value >= 0.0


# -- drawn programs with one defect shape, or with a scaled list added to a point ----


def _nodes(typed):
    """Every node of a typed tree, the root first."""
    yield typed
    for child in typed.children:
        yield from _nodes(child)


def _swap(node, old, new):
    """`node` with its subtree `old` (that very object) replaced by `new`."""
    if node is old:
        return new
    if isinstance(node, Triple):
        return Triple(tuple(_swap(item, old, new) for item in node.items))
    if isinstance(node, Neg):
        return Neg(_swap(node.operand, old, new))
    if isinstance(node, BinOp):
        return BinOp(node.op, _swap(node.left, old, new), _swap(node.right, old, new))
    if isinstance(node, Call):
        args = tuple(_swap(arg, old, new) for arg in node.args)
        return Call(node.word, args, tuple((name, _swap(arg, old, new)) for name, arg in node.kwargs))
    return node


def _replaced(data, expr, wanted, make):
    """Draw a node of the well-typed program `expr` for which wanted(typed
    node) holds; returns make(node) and the program with it in that place."""
    targets = [node.expr for node in _nodes(type_check(expr)) if wanted(node)]
    assume(targets)
    target = data.draw(st.sampled_from(targets))
    new = make(target)
    return new, _swap(expr, target, new)


@settings(max_examples=40, deadline=None)
@given(expr=_typed("cost"), data=st.data(), length=st.sampled_from([0, 1, 2, 4, 5]))
def test_a_list_of_the_wrong_length_is_rejected(expr, data, length):
    # A point or a vec replaced by a list of the wrong length. The tree is
    # checked as drawn, since `[]` does not parse.
    items = tuple(Literal(float(k)) for k in range(length))
    triple, program = _replaced(data, expr, lambda node: node.sort in ("point", "vec"), lambda _: Triple(items))
    with pytest.raises(TypeCheckError, match=f"expected a 3-element list, got {length}-element list") as error:
        type_check(program)
    assert error.value.node is triple


@settings(max_examples=40, deadline=None)
@given(expr=_typed("cost"), data=st.data())
def test_a_unary_minus_on_a_point_vec_or_cost_is_rejected(expr, data):
    # Only a scalar can be negated; a node that can also read as one (a
    # number, a sum of numbers) is not drawn.
    def wanted(node):
        return node.sort in ("point", "vec", "cost") and "scalar" not in typecheck._readings(node.expr, None)

    neg, program = _replaced(data, expr, wanted, Neg)
    with pytest.raises(TypeCheckError, match="expected scalar, got") as error:
        type_check(program)
    assert error.value.node is neg


# Four in five drawn costs hold no point, so a move term reading one is added.
_costs_with_a_point = st.builds(
    lambda cost, point, part: BinOp("+", cost, Call("move_cost", (point, part))),
    _typed("cost"), _typed("point", 2), _LEAVES["string"],
)


@settings(max_examples=30, deadline=None)
@given(
    expr=_costs_with_a_point, data=st.data(), op=st.sampled_from("+-"), offset=_LEAVES["triple"],
    scale=_typed("scalar", 1),
)
def test_a_scaled_list_added_to_a_point_is_a_point(expr, data, op, offset, scale):
    # <point> +/- [x, y, z] * <scalar>: the list reads as a vec, whatever
    # sort the sum is wanted at.
    moved, program = _replaced(
        data, expr, lambda node: node.sort == "point", lambda point: BinOp(op, point, BinOp("*", offset, scale))
    )
    assert [node.sort for node in _nodes(type_check(program)) if node.expr is moved] == ["point"]


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


# -- centroid is numpy's mean wherever that mean is finite -------------------------

_coordinates = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=1, max_size=12))
def test_centroid_is_the_mean_bit_for_bit_where_finite(points):
    coords = np.array(points, dtype=float)
    with np.errstate(over="ignore"):
        mean = coords.mean(axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        got = centroid(PointCloud(points)).as_array()
    if np.isfinite(mean).all():
        assert got.tobytes() == mean.tobytes()
    else:
        assert (coords.min(axis=0) <= got).all() and (got <= coords.max(axis=0)).all()


# -- extents over the kept extreme points are the full cloud's, bit for bit --------


def _cloud(shape, rng, n):
    """n points (a 6 x 6 x 6 grid for "grid") of the given shape, in a unit box."""
    if shape == "grid":
        axis = np.linspace(-0.5, 0.5, 6)
        return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if shape == "duplicated":
        return np.repeat(rng.uniform(-0.5, 0.5, size=(max(n // 4, 1), 3)), 4, axis=0)
    if shape in ("collinear", "planar"):
        span = rng.normal(size=(2 if shape == "planar" else 1, 3))
        return rng.uniform(-0.5, 0.5, size=(n, len(span))) @ span
    return rng.uniform(-0.5, 0.5, size=(1 if shape == "single" else n, 3))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(("random", "single", "duplicated", "collinear", "planar", "grid")),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 600),
    scale_exponent=st.floats(-6, 3),
    offset=st.floats(-10, 10),
)
def test_extents_over_extreme_points_are_the_clouds(shape, seed, n, scale_exponent, offset):
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exponent
    cloud = PointCloud(_cloud(shape, rng, n) * scale + offset * scale * rng.normal(size=3))
    kept = extreme_points(cloud)
    rows = {tuple(p) for p in cloud.coords.tolist()}
    assert len(kept) <= len(cloud) and all(tuple(p) in rows for p in kept.coords.tolist())
    if shape == "grid":
        assert len(kept) < len(cloud)
    rotations = np.stack([random_rotation(rng) for _ in range(64)])
    for dimension in ("length", "width", "height"):
        assert np.array_equal(rotated_extent(kept, rotations, dimension), rotated_extent(cloud, rotations, dimension))


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
    ctx = solver._PosedContext(scene)
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


# -- drawn programs on drawn scenes --------------------------------------------------


def _named_scene(seed: int) -> Scene:
    """Random elongated clouds under _SCENE's part names, so that drawn
    programs name them; as there, 'knife' and 'knife blade' ride with the
    grasped knife and 'carrot' stays put."""
    rng = np.random.default_rng(seed)
    names = sorted(_SCENE.parts)
    return Scene(
        parts={name: PointCloud(_elongated_cloud(rng)) for name in names},
        grasped=_SCENE.grasped,
        gripper_position=Point3(*rng.uniform(-0.5, 0.5, size=3)),
        gripper_open_fraction=float(rng.uniform(0.0, 1.0)),
        objects=_SCENE.objects,
        history=(
            SceneSnapshot(
                Point3(*rng.uniform(-0.5, 0.5, size=3)),
                {name: Point3(*rng.uniform(-0.5, 0.5, size=3)) for name in names},
            ),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(expr=_typed("cost"), seed=_seeds, drawn=st.lists(_poses, min_size=1, max_size=4))
def test_batched_rows_of_drawn_programs_equal_plain_evaluation(expr, seed, drawn):
    scene = _named_scene(seed)
    typed = validate_program(to_source(expr)).typed
    poses = [_pose(scene, angles, shift) for angles, shift in drawn]
    cfg = SolveConfig()
    plain = [_outcome(lambda pose=pose: _plain_terms(typed, scene, pose, cfg)) for pose in poses]
    try:
        rows = _batch_terms(typed, scene, poses, cfg)
    except ManiplangError:
        # A batch fails when any of its rows does.
        assert any(isinstance(outcome, type) for outcome in plain)
        return
    for (obj, cost), (plain_obj, plain_cost) in zip(rows, plain):
        assert cost == pytest.approx(plain_cost, abs=1e-12)
        assert obj == pytest.approx(plain_obj, abs=1e-12)


_shift_lists = st.lists(st.tuples(_shifts, _shifts, _shifts), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(expr=_typed("cost"), seed=_seeds, angles=st.tuples(_angles, _angles, _angles), shifts=_shift_lists)
def test_translation_analysis_is_sound(expr, seed, angles, shifts):
    # Where the analysis says no term reads t, the cost ignores t; where it
    # says one norm |d*t + b(R)| does, the cost grows by exactly |d| per meter
    # from the closed-form t*.
    scene = _named_scene(seed)
    typed = validate_program(to_source(expr)).typed
    ctx = solver._PosedContext(scene)
    form = translation_term(typed, ctx.moving)
    if form is None:
        return
    cfg = SolveConfig(alpha=0.0)

    def cost(t):
        return solver._pose_terms(typed, ctx, PoseSE3(rotation, Point3.from_array(t)), cfg)[1]

    try:
        rel, dt = solver._search_space(typed, ctx, cfg)[1](np.array([angles]))
        rotation, best = rel[0], ctx.t0 + dt[0]
        base = cost(best)
    except ManiplangError:
        return
    _, d = form
    for shift in shifts:
        t = best + np.array(shift)
        assert cost(t) - base == pytest.approx(abs(d) * float(np.linalg.norm(t - best)), abs=1e-9 if d else 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    expr=_typed("cost"),
    seed=_seeds,
    angles=st.tuples(_angles, _angles, _angles),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_no_translation_probe_improves_the_closed_form(expr, seed, angles, alpha):
    # The solver's own probes at the step floor, +/- 1e-7 m along each axis,
    # cannot improve the full objective at (R, t*) by more than rounding.
    scene = _named_scene(seed)
    typed = validate_program(to_source(expr)).typed
    ctx = solver._PosedContext(scene)
    cfg = SolveConfig(alpha=alpha, beta=0.05)
    n, poses = solver._search_space(typed, ctx, cfg)
    if n == 6:  # no closed form
        return

    def objective_at(t):
        return solver._pose_terms(typed, ctx, PoseSE3(rotation, Point3.from_array(t)), cfg)[0]

    try:
        rel, dt = poses(np.array([angles]))
        rotation, best = rel[0], ctx.t0 + dt[0]
        value = objective_at(best)
    except ManiplangError:
        return
    for probe in np.concatenate([np.eye(3), -np.eye(3)]) * 1e-7:
        assert objective_at(best + probe) >= value - 1e-12


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


def _sequential_search(f, x0, cfg: SolveConfig, rng, lower):
    """Reference: the pattern search scoring one probe per call of f, as the
    solver ran before polls were batched, over the leading len(x0) of the six
    coordinates. It stops at the start of a cycle c whose point lies within
    that cycle's steps, in every coordinate, of a finished lower-index run's
    point at the start of its cycle c (its final point if it ended before).
    Returns (x, fx, evaluations, the point at the start of each cycle)."""
    n = len(x0)
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

    steps = np.array([0.25] * 3 + [0.1] * 3)[:n]
    x = np.array(x0, dtype=float)
    fx = f(x)
    evals[0] += 1
    shrink = 1.0
    cycles = []
    while evals[0] < cfg.max_iterations:
        c = len(cycles)
        cycles.append(x)
        if any(
            np.all(np.abs(x - (run_cycles[c] if c < len(run_cycles) else run_x)) <= steps * shrink)
            for run_x, _, _, run_cycles in lower
        ):
            break
        cycle_start = fx
        x1, fx1, improved = poll(x, fx, steps * shrink, np.eye(n))
        if not improved and evals[0] < cfg.max_iterations:
            directions = rng.normal(size=(12, n))
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
    return x, fx, evals[0], cycles


def _takes_the_sequential_search(expr, scene: Scene, cfg: SolveConfig) -> int:
    """Check that `solve` takes the steps of `_sequential_search` from the same
    starts; returns the search's dimension."""
    restarts, seed = cfg.restarts, cfg.seed
    ctx = solver._PosedContext(scene)
    # The search takes the Euler angles alone where t has a closed form.
    n, poses = solver._search_space(expr, ctx, cfg)

    def f(x):
        (value,) = solver._objective_rows(expr, ctx, x[None], cfg, poses)
        return value

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n)] + [
        np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 3), rng.uniform(-0.2, 0.2, 3)])[:n]
        for _ in range(restarts - 1)
    ]
    runs = []
    for index, start in enumerate(starts):
        runs.append(_sequential_search(f, start, cfg, np.random.default_rng((seed, index)), runs))
    best = min(range(restarts), key=lambda index: (runs[index][1], index))
    x, _, evals, _ = runs[best]
    result = solve(expr, scene, cfg)
    assert (result.restart_index, result.iterations) == (best, evals)
    assert result.total_evaluations == sum(run[2] for run in runs)
    rel, dt = poses(x[None])
    assert np.array_equal(result.pose.rotation, rel[0])
    assert result.pose.translation == Point3.from_array(ctx.t0 + dt[0])
    return n


@settings(max_examples=8, deadline=None)
@given(seed=_seeds, program=st.sampled_from(SOLVE_PROGRAMS), restarts=st.sampled_from((1, 3, 10, 20)))
def test_solve_takes_the_sequential_search(seed, program, restarts):
    cfg = SolveConfig(restarts=restarts, max_iterations=150, seed=seed)
    _takes_the_sequential_search(type_check(parse(program)), _random_scene(seed), cfg)


CUBE_MOVE = "move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])"
# case -> (shipped scene, or None for a random one; program; alpha; dimension
# of the search). Only the first case has a closed-form translation.
SEARCH_DIMENSIONS = {
    "alpha_equal_to_d": ("cube_target", CUBE_MOVE, 1.0, 3),
    "alpha_above_d": ("cube_target", CUBE_MOVE, 1.5, 6),
    "two_moving_norms": (
        None, "move_cost(get_centroid('a'), get_centroid('b')) + move_cost('gripper', 'c', offset=[0, 0, 0.1])", 0.1, 6
    ),
    "direction_moving_to_static": (
        None, "move_cost(get_centroid('a'), get_centroid('b')) + perpendicular_cost(direction_of('a', 'c'), [0, 0, 1])",
        0.1, 6,
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_DIMENSIONS))
def test_programs_without_a_closed_form_keep_the_6d_search(case):
    kind, program, alpha, dimension = SEARCH_DIMENSIONS[case]
    scene = load_scene(fixtures.shipped_scene_path(kind)) if kind else _random_scene(7)
    cfg = SolveConfig(alpha=alpha, restarts=3, max_iterations=150, seed=3)
    assert _takes_the_sequential_search(type_check(parse(program)), scene, cfg) == dimension


# -- scene_from_json raises only SceneError ------------------------------------------

# JSON numbers as json.loads gives them: small and huge integers (past the
# float range), any float (NaN and inf come from JSON's NaN and Infinity), and
# finite floats at the float limit.
_json_numbers = st.one_of(
    st.integers(-3, 3),
    st.integers(10**308, 10**400).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, -1e308]),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), _json_numbers),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _or_any(strategy):
    """`strategy` four times in five, else any JSON."""
    return st.integers(0, 4).flatmap(lambda k: strategy if k else _json)


# Each field of a scene document holds what it should, or any JSON.
_triples = _or_any(st.lists(_json_numbers, min_size=3, max_size=3))
_part_names = st.sampled_from(["cup", "lid", "gripper", " "]) | st.text(max_size=3)
_part_docs = st.fixed_dictionaries(
    {"points": _or_any(st.lists(_triples, min_size=1, max_size=3))},
    optional={"grasped": _or_any(st.booleans()), "object": _or_any(st.text(max_size=3))},
)
_snapshots = st.fixed_dictionaries(
    {"gripper": _triples}, optional={"parts": _or_any(st.dictionaries(_part_names, _triples, max_size=2))}
)
_scene_docs = _or_any(
    st.fixed_dictionaries(
        {
            "parts": _or_any(st.dictionaries(_part_names, _or_any(_part_docs), max_size=3)),
            "gripper": _or_any(st.fixed_dictionaries({"position": _triples, "open_fraction": _or_any(_json_numbers)})),
        },
        optional={"history": _or_any(st.lists(_or_any(_snapshots), max_size=2))},
    )
)


@settings(max_examples=100, deadline=None)
@given(_scene_docs)
def test_scene_from_json_raises_only_scene_error(doc):
    try:
        scene_from_json(doc)
    except SceneError:
        pass
