"""Evaluate a typed cost expression against a scene.

Each cost word measures one geometric violation and is zero exactly when the
relation holds: distances in meters, alignment terms in [0, 1] via |cosine|
(so the principal-axis sign never matters), uprightness signed in [0, 2].
A sum evaluates to the exact sum of its terms; mixed units are added
unweighted, matching how programs are written.

Words read a part only through the context's centroid, principal-axis and
extent summaries, so the solver's posed context can stand in for moved clouds.
Values broadcast over leading axes: where a context places a stack of K poses,
points are (K, 3), scalars and costs (K,), and each row is what a plain
context holding that one pose would give.

Evaluation is pure given an immutable context and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ManiplangError
from .geometry import (
    DegenerateAxisError,
    PointCloud,
    angle_between,
    dot,
    extent,
    norm,
    principal_axis,
    unit_direction,
)
from .language.ast import BinOp, Call, Literal, Neg, Triple, TypedExpr
from .scene import GRIPPER_NAME, Scene


class EvalError(ManiplangError):
    pass


class MissingPartError(EvalError):
    def __init__(self, name: str):
        self.part = name
        super().__init__(f"no part named {name!r} in scene")


class EmptyHistoryError(EvalError):
    pass


@dataclass(frozen=True)
class EvalContext:
    """Scene plus an optional part-name resolver hook.

    The default resolver is exact map lookup; the retrieval module can
    substitute a phrase-matching one. Summaries are computed on every read.
    """

    scene: Scene
    part_resolver: Callable[[str], PointCloud | None] | None = None

    def resolve_cloud(self, name: str) -> PointCloud:
        if name == GRIPPER_NAME:
            raise MissingPartError(name)
        if self.part_resolver is not None:
            cloud = self.part_resolver(name)
        else:
            cloud = self.scene.parts.get(name)
        if cloud is None:
            raise MissingPartError(name)
        return cloud

    def part_centroid(self, name: str) -> np.ndarray:
        return self.resolve_cloud(name).coords.mean(axis=0)

    def part_axis(self, name: str) -> np.ndarray:
        return principal_axis(self.resolve_cloud(name)).as_array()

    def part_extent(self, name: str, dimension: str) -> float:
        return extent(self.resolve_cloud(name), dimension)

    def part_line(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(centroid, principal axis), resolving the part once."""
        cloud = self.resolve_cloud(name)
        return cloud.coords.mean(axis=0), principal_axis(cloud).as_array()

    def resolve_point(self, name: str) -> np.ndarray:
        if name == GRIPPER_NAME:
            return self.scene.gripper_position.as_array()
        return self.part_centroid(name)


def evaluate(expr: TypedExpr, ctx: EvalContext) -> float | np.ndarray:
    """Evaluate a cost-sorted expression to a non-negative float, or to one
    per pose, shape (K,), when the context places a stack of poses and the
    value depends on them."""
    if expr.sort != "cost":
        raise EvalError(f"can only evaluate cost expressions, got sort {expr.sort!r}")
    value = _eval(expr, ctx)
    return float(value) if np.ndim(value) == 0 else value


def _eval(node: TypedExpr, ctx: EvalContext):
    expr = node.expr
    if isinstance(expr, Literal):
        if node.sort == "point" and isinstance(expr.value, str):
            return ctx.resolve_point(expr.value)
        return expr.value
    if isinstance(expr, Triple):
        items = [_eval(item, ctx) for item in node.children]
        if any(isinstance(item, np.ndarray) for item in items):
            return np.stack(np.broadcast_arrays(*items), axis=-1, dtype=float)
        return np.array(items, dtype=float)
    if isinstance(expr, Neg):
        return -_eval(node.children[0], ctx)
    if isinstance(expr, BinOp):
        left = _eval(node.children[0], ctx)
        right = _eval(node.children[1], ctx)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if node.sort == "vec":
            # vec * scalar: a scalar per pose scales that pose's vector.
            right = np.expand_dims(right, -1)
        return left * right
    if isinstance(expr, Call):
        return _eval_call(node, ctx)
    raise EvalError(f"cannot evaluate node {expr!r}")


def _arg(node: TypedExpr, name: str, ctx: EvalContext):
    bound = node.binding(name)
    return None if bound is None else _eval(bound, ctx)


def _string_arg(node: TypedExpr, name: str) -> str:
    bound = node.binding(name)
    assert bound is not None and isinstance(bound.expr, Literal)
    return str(bound.expr.value)


def _eval_call(node: TypedExpr, ctx: EvalContext):
    word = node.word
    if word in _GETTERS:
        return _GETTERS[word](node, ctx)
    if word in _COST_WORDS:
        return _COST_WORDS[word](node, ctx)
    raise EvalError(f"word {word!r} is not evaluable (void actions run in the pipeline)")


# -- getters -----------------------------------------------------------------


def _get_centroid(node, ctx):
    return ctx.resolve_point(_string_arg(node, "part"))


def _centroid_last(node, ctx):
    """Position of the "part" argument (a part's centroid, or the gripper)
    in the latest history snapshot; shared by every word that reads history."""
    name = _string_arg(node, "part")
    if not ctx.scene.history:
        raise EmptyHistoryError(f"{node.word}({name!r}) needs at least one recorded snapshot")
    snap = ctx.scene.history[-1]
    if name == GRIPPER_NAME:
        return snap.gripper_position.as_array()
    if name not in snap.part_centroids:
        raise MissingPartError(name)
    return snap.part_centroids[name].as_array()


def _get_axis(node, ctx):
    return ctx.part_axis(_string_arg(node, "part"))


def _get_gripper_pos(node, ctx):
    return ctx.resolve_point(GRIPPER_NAME)


def _make_extent(dimension):
    def _getter(node, ctx):
        return ctx.part_extent(_string_arg(node, "part"), dimension)

    return _getter


def _direction_of(node, ctx):
    start = ctx.resolve_point(_string_arg(node, "start"))
    end = ctx.resolve_point(_string_arg(node, "end"))
    return unit_direction(start, end)


_GETTERS = {
    "get_centroid": _get_centroid,
    "centroid_last": _centroid_last,
    "get_axis": _get_axis,
    "get_gripper_pos": _get_gripper_pos,
    "get_height": _make_extent("height"),
    "get_width": _make_extent("width"),
    "get_length": _make_extent("length"),
    "direction_of": _direction_of,
}


# -- cost words --------------------------------------------------------------


def _unit(vec: np.ndarray) -> np.ndarray:
    length = norm(vec)
    if (length <= 1e-12).any():
        raise DegenerateAxisError("zero-length vector in alignment cost")
    return vec / length[..., None]


def _move_cost(node, ctx):
    source = _arg(node, "source", ctx)
    target = _arg(node, "target", ctx)
    offset = _arg(node, "offset", ctx)
    if offset is not None:
        target = target + offset
    return norm(source - target)


def _move_cost_with_offset(node, ctx):
    offset = _arg(node, "offset", ctx)
    anchor = _centroid_last(node, ctx)
    return norm(ctx.resolve_point(_string_arg(node, "part")) - (anchor + offset))


def _alignment(node, ctx):
    a = _unit(_arg(node, "first", ctx))
    b = _unit(_arg(node, "second", ctx))
    return np.minimum(np.abs(dot(a, b)), 1.0)


def _parallel_cost(node, ctx):
    return 1.0 - _alignment(node, ctx)


def _perpendicular_cost(node, ctx):
    return _alignment(node, ctx)


def _rotate_cost(node, ctx):
    axis = _arg(node, "axis", ctx)
    reference = _arg(node, "reference", ctx)
    target = _arg(node, "angle", ctx)
    return np.abs(angle_between(axis, reference) - target) / math.pi


def _orbit_cost(node, ctx):
    center, axis = ctx.part_line(_string_arg(node, "center_part"))
    moving = ctx.resolve_point(_string_arg(node, "moving_part"))
    radius = _arg(node, "radius", ctx)
    rel = moving - center
    radial = rel - dot(rel, axis)[..., None] * axis
    return np.abs(norm(radial) - radius)


def _upright_cost(node, ctx):
    up = ctx.resolve_point(_string_arg(node, "up_part"))
    down = ctx.resolve_point(_string_arg(node, "down_part"))
    # Signed on purpose: "up above down" is not symmetric under axis flips.
    return np.minimum(np.maximum(1.0 - unit_direction(down, up)[..., 2], 0.0), 2.0)


def _gripper_open_cost(node, ctx):
    return 1.0 - ctx.scene.gripper_open_fraction


def _gripper_close_first_cost(node, ctx):
    return ctx.scene.gripper_open_fraction


_COST_WORDS = {
    "move_cost": _move_cost,
    "move_cost_with_offset": _move_cost_with_offset,
    "parallel_cost": _parallel_cost,
    "perpendicular_cost": _perpendicular_cost,
    "rotate_cost": _rotate_cost,
    "orbit_cost": _orbit_cost,
    "upright_cost": _upright_cost,
    "gripper_open_cost": _gripper_open_cost,
    "gripper_close_first_cost": _gripper_close_first_cost,
}


def motion_subjects(expr: TypedExpr) -> frozenset[str]:
    """Part names whose placement the expression constrains.

    Used by the solver to detect programs that demand motion when nothing
    is grasped: the subject of a move, the parts of upright/orbit words,
    and any part feeding an alignment or rotation cost through its axis.
    """
    subjects: set[str] = set()

    def visit(node: TypedExpr, collect_parts: bool):
        expr_node = node.expr
        if collect_parts and isinstance(expr_node, Literal) and node.sort in ("point", "string"):
            if isinstance(expr_node.value, str):
                subjects.add(expr_node.value)
        if isinstance(expr_node, Call):
            word = node.word
            if word == "move_cost":
                bound = node.binding("source")
                if bound is not None:
                    visit(bound, True)
                return
            if word == "move_cost_with_offset":
                subjects.add(_string_arg(node, "part"))
                return
            if word == "upright_cost":
                subjects.add(_string_arg(node, "up_part"))
                subjects.add(_string_arg(node, "down_part"))
                return
            if word == "orbit_cost":
                subjects.add(_string_arg(node, "moving_part"))
                return
            if word in ("parallel_cost", "perpendicular_cost", "rotate_cost"):
                for _, child in node.bound:
                    visit(child, True)
                return
            if word in ("get_axis", "get_centroid", "centroid_last") and collect_parts:
                subjects.add(_string_arg(node, "part"))
                return
            if word == "direction_of" and collect_parts:
                subjects.add(_string_arg(node, "start"))
                subjects.add(_string_arg(node, "end"))
                return
        for child in node.children:
            visit(child, collect_parts if not isinstance(expr_node, Call) else False)

    visit(expr, False)
    return frozenset(subjects)
