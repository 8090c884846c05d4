"""Evaluate a typed cost expression against a scene.

Each cost word measures one geometric violation and is zero exactly when the
relation holds: distances in meters, alignment terms in [0, 1] via |cosine|
(so the principal-axis sign never matters), uprightness signed in [0, 2].
A sum evaluates to the exact sum of its terms; mixed units are added
unweighted, matching how programs are written.

A word is a function of the context and its argument values. A call's
arguments are evaluated in parameter order before the word runs; a part-name
argument arrives as its string, and a part name where a point is expected as
that point. Words read a part only through the context's centroid,
principal-axis and extent summaries, so the solver's posed context can stand
in for moved clouds.
Values broadcast over leading axes: where a context places a stack of K poses,
points are (K, 3), scalars and costs (K,), and each row is what a plain
context holding that one pose would give.

A context keeps each summary it computes, so its part resolver must be a
function of the name. Evaluation may run concurrently: at worst a summary is
computed twice, to the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvalError, MissingPartError
from .geometry import (
    DegenerateAxisError,
    PointCloud,
    angle_between,
    centroid,
    dot,
    extent,
    norm,
    principal_axis,
    unit_direction,
)
from .language.ast import BinOp, Call, Literal, Neg, Triple, TypedExpr
from .scene import GRIPPER_NAME, Scene


class EmptyHistoryError(EvalError):
    pass


@dataclass(frozen=True)
class EvalContext:
    """Scene plus an optional part-name resolver hook.

    The default resolver is exact map lookup; the retrieval module can
    substitute a phrase-matching one. A summary (a part's cloud, centroid,
    axis or an extent) is kept once computed; one that raises is not kept.
    """

    scene: Scene
    part_resolver: Callable[[str], PointCloud | None] | None = None
    _summaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _summary(self, kind: str, name: str, compute, kept: dict | None = None):
        """`compute()`, kept under (kind, name) in `kept` (by default the context's
        summaries) once it returns; None means no such part."""
        kept = self._summaries if kept is None else kept
        if (kind, name) not in kept:
            value = compute()
            if value is None:
                raise MissingPartError(name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # every later read shares it
            kept[kind, name] = value
        return kept[kind, name]

    def resolve_cloud(self, name: str) -> PointCloud:
        if name == GRIPPER_NAME:
            raise MissingPartError(name)
        resolver = self.scene.parts.get if self.part_resolver is None else self.part_resolver
        return self._summary("cloud", name, lambda: resolver(name))

    def part_axis(self, name: str) -> np.ndarray:
        return self._summary("axis", name, lambda: principal_axis(self.resolve_cloud(name)).as_array())

    def part_extent(self, name: str, dimension: str) -> float:
        return self._summary(dimension, name, lambda: extent(self.resolve_cloud(name), dimension))

    def resolve_point(self, name: str) -> np.ndarray:
        """The gripper's position, or a part's centroid."""
        if name == GRIPPER_NAME:
            return self.scene.gripper_position.as_array()
        return self._summary("centroid", name, lambda: centroid(self.resolve_cloud(name)).as_array())


def evaluate(expr: TypedExpr, ctx: EvalContext) -> float | np.ndarray:
    """Evaluate a cost-sorted expression to a non-negative float, or to one
    per pose, shape (K,), when the context places a stack of poses and the
    value depends on them. A value that is not finite (arithmetic that
    overflows, say) raises EvalError."""
    if expr.sort != "cost":
        raise EvalError(f"can only evaluate cost expressions, got sort {expr.sort!r}")
    with np.errstate(all="ignore"):
        value = _eval(expr, ctx)
    if not (isinstance(value, np.ndarray) and value.ndim):
        value = float(value)
        if not math.isfinite(value):
            raise EvalError(f"cost is not finite: {value}")
        return value
    finite = np.isfinite(value)
    if not finite.all():
        raise EvalError(f"cost is not finite: {value[~finite][0]}")
    return value


def _eval(node: TypedExpr, ctx: EvalContext):
    expr = node.expr
    if isinstance(expr, Literal):
        if node.sort == "point" and isinstance(expr.value, str):
            return ctx.resolve_point(expr.value)
        return expr.value
    if isinstance(expr, Triple):
        items = _values(node, ctx)
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
        word = _WORDS.get(node.word)
        if word is None:
            raise EvalError(f"word {node.word!r} is not evaluable (void actions run in the pipeline)")
        return word(ctx, *_values(node, ctx))
    raise EvalError(f"cannot evaluate node {expr!r}")


def _values(node: TypedExpr, ctx: EvalContext) -> list:
    """The values of a node's children: a call's arguments, in parameter order."""
    return [_eval(child, ctx) for child in node.children]


def _centroid_last(ctx, part: str, word: str):
    """Position of `part` (a part's centroid, or the gripper) in the latest
    history snapshot; shared by every word that reads history."""
    if not ctx.scene.history:
        raise EmptyHistoryError(f"{word}({part!r}) needs at least one recorded snapshot")
    snap = ctx.scene.history[-1]
    if part == GRIPPER_NAME:
        return snap.gripper_position.as_array()
    if part not in snap.part_centroids:
        raise MissingPartError(part)
    return snap.part_centroids[part].as_array()


# -- cost words --------------------------------------------------------------


def _unit(vec: np.ndarray) -> np.ndarray:
    length = norm(vec)
    if (length <= 1e-12).any():
        raise DegenerateAxisError("zero-length vector in alignment cost")
    return vec / length[..., None]


def move_residual(node: TypedExpr, ctx: EvalContext):
    """The vector whose length a move word costs: where its subject is, less
    where it should be (the goal plus any offset)."""
    return _RESIDUALS[node.word](ctx, *_values(node, ctx))


def _move_residual(ctx, source, target, offset=None):
    return source - (target if offset is None else target + offset)


def _offset_residual(ctx, part, offset):
    goal = _centroid_last(ctx, part, "move_cost_with_offset")
    return ctx.resolve_point(part) - (goal + offset)


# Move word -> its residual; the word costs the residual's length.
_RESIDUALS = {"move_cost": _move_residual, "move_cost_with_offset": _offset_residual}


def _parallel_cost(ctx, first, second):
    return 1.0 - _perpendicular_cost(ctx, first, second)


def _perpendicular_cost(ctx, first, second):
    return np.minimum(np.abs(dot(_unit(first), _unit(second))), 1.0)


def _rotate_cost(ctx, axis, angle, reference):
    return np.abs(angle_between(axis, reference) - angle) / math.pi


def _orbit_cost(ctx, center_part, radius, moving_part):
    center, axis = ctx.resolve_point(center_part), ctx.part_axis(center_part)
    rel = ctx.resolve_point(moving_part) - center
    radial = rel - dot(rel, axis)[..., None] * axis
    return np.abs(norm(radial) - radius)


def _upright_cost(ctx, up_part, down_part):
    up = ctx.resolve_point(up_part)
    down = ctx.resolve_point(down_part)
    # Signed on purpose: "up above down" is not symmetric under axis flips.
    return np.minimum(np.maximum(1.0 - unit_direction(down, up)[..., 2], 0.0), 2.0)


# Every evaluable word, a function of the context and its argument values:
# the getters, then the cost words.
_WORDS = {
    "get_centroid": lambda ctx, part: ctx.resolve_point(part),
    "centroid_last": lambda ctx, part: _centroid_last(ctx, part, "centroid_last"),
    "get_axis": lambda ctx, part: ctx.part_axis(part),
    "get_gripper_pos": lambda ctx: ctx.resolve_point(GRIPPER_NAME),
    "get_height": lambda ctx, part: ctx.part_extent(part, "height"),
    "get_width": lambda ctx, part: ctx.part_extent(part, "width"),
    "get_length": lambda ctx, part: ctx.part_extent(part, "length"),
    "direction_of": lambda ctx, start, end: unit_direction(ctx.resolve_point(start), ctx.resolve_point(end)),
    "move_cost": lambda ctx, source, target, offset=None: norm(_move_residual(ctx, source, target, offset)),
    "move_cost_with_offset": lambda ctx, part, offset: norm(_offset_residual(ctx, part, offset)),
    "parallel_cost": _parallel_cost,
    "perpendicular_cost": _perpendicular_cost,
    "rotate_cost": _rotate_cost,
    "orbit_cost": _orbit_cost,
    "upright_cost": _upright_cost,
    "gripper_open_cost": lambda ctx: 1.0 - ctx.scene.gripper_open_fraction,
    "gripper_close_first_cost": lambda ctx: ctx.scene.gripper_open_fraction,
}


# Cost word -> the arguments whose parts it asks to move (None: all of them).
_SUBJECT_ARGS = {
    "move_cost": ("source",),
    "move_cost_with_offset": ("part",),
    "upright_cost": ("up_part", "down_part"),
    "orbit_cost": ("moving_part",),
    "parallel_cost": None,
    "perpendicular_cost": None,
    "rotate_cost": None,
}
# Getters that pass their part names through to a subject argument.
_PART_GETTERS = frozenset({"get_axis", "get_centroid", "centroid_last", "direction_of"})


def motion_subjects(expr: TypedExpr) -> frozenset[str]:
    """Part names whose placement the expression constrains.

    Used by the solver to detect programs that demand motion when nothing
    is grasped: the subject of a move, the parts of upright/orbit words,
    and any part feeding an alignment or rotation cost through its axis.
    """
    subjects: set[str] = set()

    def visit(node: TypedExpr, collect_parts: bool):
        expr_node = node.expr
        if collect_parts and isinstance(expr_node, Literal) and isinstance(expr_node.value, str):
            subjects.add(expr_node.value)
        if isinstance(expr_node, Call):
            if node.word in _SUBJECT_ARGS or (collect_parts and node.word in _PART_GETTERS):
                names = _SUBJECT_ARGS.get(node.word)
                for name, child in zip(node.params, node.children):
                    if names is None or name in names:
                        visit(child, True)
                return
            collect_parts = False
        for child in node.children:
            visit(child, collect_parts)

    visit(expr, False)
    return frozenset(subjects)


def translation_term(expr: TypedExpr, moving: frozenset[str]) -> tuple[TypedExpr | None, int] | None:
    """How the cost reads the gripper translation t when `moving` ride with it.

    Every point is k*t + f(R) for an integer k: 1 for the gripper and a moving
    centroid, 0 for a static one, history and a triple, summed through + and -.
    No scalar reads t; a vec reads it only through direction_of between ends of
    unequal k, nonlinearly. So each term of the cost sum reads no t, reads it
    nonlinearly, or is a move word with residual d*t + b(R).
    Returns (None, 0) when no term reads t; (term, d) when only that move word
    does, d != 0; None otherwise.
    """

    def named(name) -> int:
        return int(name == GRIPPER_NAME or name in moving)

    def shift(node: TypedExpr) -> int | None:
        """k of a point, or d of a move word's residual; 0 for what reads no
        t, None for what reads it nonlinearly."""
        if isinstance(node.expr, Literal):
            return named(node.expr.value) if node.sort == "point" else 0
        ks = [shift(child) for child in node.children]
        if None in ks:
            return None
        if isinstance(node.expr, BinOp) and node.expr.op != "*":
            return ks[0] + ks[1] if node.expr.op == "+" else ks[0] - ks[1]
        if node.word == "move_cost":
            return ks[0] - ks[1]  # an offset is a vec, so its k is 0
        if node.word in ("get_centroid", "move_cost_with_offset"):
            return named(node.children[0].expr.value)
        if node.word == "get_gripper_pos":
            return 1
        # Any other word reads the parts it names by shape, history or their
        # differences: no t if they all ride the same way, nonlinearly if not.
        ends = {named(child.expr.value) for child in node.children if child.sort == "string"}
        return 0 if not any(ks) and len(ends) <= 1 else None

    def terms(node: TypedExpr) -> list[TypedExpr]:
        if isinstance(node.expr, BinOp):  # cost + cost, the one cost rule
            return terms(node.children[0]) + terms(node.children[1])
        return [node]

    reading = [(term, k) for term in terms(expr) if (k := shift(term)) != 0]
    if len(reading) > 1 or any(k is None for _, k in reading):
        return None
    return reading[0] if reading else (None, 0)
