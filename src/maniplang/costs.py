"""Evaluate a typed cost expression against a scene.

Each cost word measures one geometric violation and is zero exactly when the
relation holds: distances in meters, alignment terms in [0, 1] via |cosine|
(so the principal-axis sign never matters), uprightness signed in [0, 2].
A sum evaluates to the exact sum of its terms; mixed units are added
unweighted, matching how programs are written.

An expression is compiled against a context into a plan (`compile_plan`)
by one walk in post-order: a call's arguments in parameter order, then the
nodes its word is made of (a move word's goal and residual, an alignment
word's unit vectors). A part-name argument arrives as its string, and a part
name where a point is expected as that point. Words read a part only through
the context's centroid, principal-axis and extent summaries, so the solver's
posed context can stand in for moved clouds.
Values broadcast over leading axes: where a context places a stack of K poses,
points are (K, 3), scalars and costs (K,), and each row is what a plain
context holding that one pose would give.

A node that reads no name the context poses is computed by the walk: on a
plain context every node; on the solver's, which poses the gripper and the
parts riding with it, static centroids and axes, literal triples, a goal plus
its offset, a static axis's unit vector. A run computes the rest in the
walk's order. A node that raises while folding stays a step, so each run
raises it in its place, as the walk would.

A context keeps each summary it computes, so its part resolver must be a
function of the name. Evaluation may run concurrently: at worst a summary is
computed twice, to the same value.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np

from .errors import EvalError, ManiplangError, MissingPartError
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


class EvalContext:
    """Scene plus an optional part-name resolver hook.

    The default resolver is exact map lookup; the retrieval module can
    substitute a phrase-matching one. A summary (a part's cloud, centroid,
    axis or an extent) is kept once computed; one that raises is not kept.
    `posed` names what a subclass places per pose; a plain context poses nothing.
    """

    posed = frozenset()

    def __init__(self, scene: Scene, part_resolver: Callable[[str], PointCloud | None] | None = None):
        self.scene, self.part_resolver, self._summaries = scene, part_resolver, {}

    def _summary(self, kind: str, name: str, compute, kept: dict | None = None):
        """`compute()`, kept under (kind, name) in `kept` (by default the context's
        summaries) once it returns; None means no such part."""
        kept = self._summaries if kept is None else kept
        value = kept.get((kind, name))
        if value is None:
            value = compute()
            if value is None:
                raise MissingPartError(name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # every later read shares it
            kept[kind, name] = value
        return value

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


def evaluate(expr: TypedExpr | Callable, ctx: EvalContext) -> float | np.ndarray:
    """Evaluate a cost-sorted expression, or its plan against ctx, to a
    non-negative float, or to one per pose, shape (K,), when the context places
    a stack of poses and the value depends on them. A value that is not finite
    (arithmetic that overflows, say) raises EvalError."""
    with np.errstate(all="ignore"):
        value = (_Plan(ctx, expr) if isinstance(expr, TypedExpr) else expr)()
    if not (isinstance(value, np.ndarray) and value.ndim):
        value = float(value)
        if not math.isfinite(value):
            raise EvalError(f"cost is not finite: {value}")
        return value
    finite = np.isfinite(value)
    if not finite.all():
        raise EvalError(f"cost is not finite: {value[~finite][0]}")
    return value


def compile_plan(expr: TypedExpr, ctx: EvalContext, words: dict | None = None) -> Callable:
    """The plan of a cost expression against ctx: called with no arguments, as
    `evaluate` does each time ctx is posed afresh, it gives the value at the
    poses placed then, or raises. `words` maps the root call's word to its nodes.
    Compiling against a posed context never raises for a typed cost program."""
    with np.errstate(all="ignore"):
        return _Plan(ctx, expr, words or _WORDS)


def move_residual(node: TypedExpr, ctx: EvalContext) -> Callable:
    """The plan of the vector whose length a move word costs: where its
    subject is, less where it should be (the goal plus any offset)."""
    return compile_plan(node, ctx, _RESIDUALS)


# Reads of the context: a step where the part is posed, else computed now.
def _point(plan, part):
    return plan.node(plan.ctx.resolve_point, part in plan.posed)(part)


def _axis(plan, part):
    return plan.node(plan.ctx.part_axis, part in plan.posed)(part)


def _triple(*items):
    if np.ndarray not in map(type, items):
        return np.array(items, dtype=float)
    out = np.empty(np.broadcast(*items).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = items
    return out


def _scale(vec, scalar):
    """vec * scalar: a scalar per pose scales that pose's vector."""
    return vec * np.asarray(scalar)[..., None]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _centroid_last(scene: Scene, part: str, word: str):
    """Position of `part` (a part's centroid, or the gripper) in the latest
    history snapshot; shared by every word that reads history."""
    if not scene.history:
        raise EmptyHistoryError(f"{word}({part!r}) needs at least one recorded snapshot")
    snap = scene.history[-1]
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


def _move_residual(plan, source, target, offset=None):
    return plan.node(operator.sub)(source, target if offset is None else plan.node(operator.add)(target, offset))


def _offset_residual(plan, part, offset):
    goal = plan.node(_centroid_last)(plan.ctx.scene, part, "move_cost_with_offset")
    return plan.node(operator.sub)(_point(plan, part), plan.node(operator.add)(goal, offset))


# Move word -> its residual; the word costs the residual's length.
_RESIDUALS = {"move_cost": _move_residual, "move_cost_with_offset": _offset_residual}


def _perpendicular_cost(plan, first, second):
    unit = plan.node(_unit)
    return plan.node(_abs_cosine)(unit(first), unit(second))


def _abs_cosine(first, second):
    return np.minimum(np.abs(dot(first, second)), 1.0)


def _rotate_cost(axis, angle, reference):
    return np.abs(angle_between(axis, reference) - angle) / math.pi


def _orbit_cost(center, axis, radius, moving):
    rel = moving - center
    radial = rel - dot(rel, axis)[..., None] * axis
    return np.abs(norm(radial) - radius)


def _upright_cost(up, down):
    # Signed on purpose: "up above down" is not symmetric under axis flips.
    return np.minimum(np.maximum(1.0 - unit_direction(down, up)[..., 2], 0.0), 2.0)


# Every evaluable word: a function of the plan and its argument values (or
# slots) that builds the word's nodes in the walk's order. Getters, then costs.
_WORDS = {
    "get_centroid": _point,
    "centroid_last": lambda plan, part: plan.node(_centroid_last)(plan.ctx.scene, part, "centroid_last"),
    "get_axis": _axis,
    "get_gripper_pos": lambda plan: _point(plan, GRIPPER_NAME),
    "get_height": lambda plan, part: plan.node(plan.ctx.part_extent, part in plan.posed)(part, "height"),
    "get_width": lambda plan, part: plan.node(plan.ctx.part_extent, part in plan.posed)(part, "width"),
    "get_length": lambda plan, part: plan.node(plan.ctx.part_extent, part in plan.posed)(part, "length"),
    "direction_of": lambda plan, start, end: plan.node(unit_direction)(_point(plan, start), _point(plan, end)),
    "move_cost": lambda plan, source, target, offset=None: plan.node(norm)(
        _move_residual(plan, source, target, offset)
    ),
    "move_cost_with_offset": lambda plan, part, offset: plan.node(norm)(_offset_residual(plan, part, offset)),
    "parallel_cost": lambda plan, first, second: plan.node(operator.sub)(1.0, _perpendicular_cost(plan, first, second)),
    "perpendicular_cost": _perpendicular_cost,
    "rotate_cost": lambda plan, axis, angle, reference: plan.node(_rotate_cost)(axis, angle, reference),
    "orbit_cost": lambda plan, center_part, radius, moving_part: plan.node(_orbit_cost)(
        _point(plan, center_part), _axis(plan, center_part), radius, _point(plan, moving_part)
    ),
    "upright_cost": lambda plan, up_part, down_part: plan.node(_upright_cost)(
        _point(plan, up_part), _point(plan, down_part)
    ),
    "gripper_open_cost": lambda plan: 1.0 - plan.ctx.scene.gripper_open_fraction,
    "gripper_close_first_cost": lambda plan: plan.ctx.scene.gripper_open_fraction,
}


class _Slot(int):
    """A posed value in a plan: the index of the step that computes it."""


class _Plan:
    """An expression compiled against a context (see the module docstring):
    its folded value, or the steps (fn, parts) a run computes in the walk's
    post-order, where a part that an earlier step gives is that step's slot."""

    __slots__ = ("ctx", "posed", "steps", "result")

    def __init__(self, ctx: EvalContext, expr: TypedExpr, words: dict = _WORDS):
        if expr.sort != "cost":
            raise EvalError(f"can only evaluate cost expressions, got sort {expr.sort!r}")
        self.ctx, self.posed, self.steps = ctx, ctx.posed, []
        self.result = self.walk(expr, words)

    def __call__(self):
        if type(self.result) is not _Slot:
            return self.result
        values = []
        for fn, parts in self.steps:
            values.append(fn(*[values[p] if type(p) is _Slot else p for p in parts]))
        return values[self.result]

    def walk(self, node: TypedExpr, words: dict = _WORDS):
        """The node's value or slot: a call's arguments, in parameter order,
        then the nodes its word (from `words`) is made of."""
        expr = node.expr
        if isinstance(expr, Literal):
            return _point(self, expr.value) if node.sort == "point" and isinstance(expr.value, str) else expr.value
        if isinstance(expr, Call):
            if node.word not in words:
                raise EvalError(f"word {node.word!r} is not evaluable (void actions run in the pipeline)")
            return words[node.word](self, *[self.walk(child) for child in node.children])
        if isinstance(expr, Triple):
            return self.node(_triple)(*[self.walk(child) for child in node.children])
        if isinstance(expr, Neg):
            return self.node(operator.neg)(self.walk(node.children[0]))
        op = _scale if expr.op == "*" and node.sort == "vec" else _BINARY[expr.op]
        return self.node(op)(self.walk(node.children[0]), self.walk(node.children[1]))

    def node(self, fn, posed: bool = False):
        """fn as a node: called with its parts, it gives fn of their values, or
        a step's slot if it is posed, a part is, or fn raises; on a plain
        context, fn itself."""
        return functools.partial(self._node, fn, posed) if self.posed else fn

    def _node(self, fn, posed: bool, *parts):
        if not (posed or _Slot in map(type, parts)):
            try:
                return fn(*parts)
            except ManiplangError:  # kept as a step: each run raises it in its place
                pass
        self.steps.append((fn, parts))
        return _Slot(len(self.steps) - 1)


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


def translation_term(expr: TypedExpr, posed: frozenset[str]) -> tuple[TypedExpr | None, int] | None:
    """How the cost reads the gripper translation t when the names in `posed` ride with it.

    Every point is k*t + f(R) for an integer k: 1 for the gripper and a moving
    centroid, 0 for a static one, history and a triple, summed through + and -.
    No scalar reads t; a vec reads it only through direction_of between ends of
    unequal k, nonlinearly. So each term of the cost sum reads no t, reads it
    nonlinearly, or is a move word with residual d*t + b(R).
    Returns (None, 0) when no term reads t; (term, d) when only that move word
    does, d != 0; None otherwise.
    """

    def named(name) -> int:
        return int(name in posed)

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
