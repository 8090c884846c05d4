"""Gripper pose solver.

Minimizes  cost(scene with moved parts) + alpha * |t - t0|_2
           + beta * |euler(R)|_1
over the gripper end pose (R, t), starting from the identity rotation at the
gripper's position t0. Parts attached to the grasped object move rigidly
with the gripper; everything else stays put.

The objective moves no cloud: cost words read a part only through its
centroid, principal axis and extent, which a posed context maps in closed
form. Static summaries are computed once per solve, on first read; a moving
centroid maps as c -> R(c - t0) + t, a moving axis as a -> R a (sign-fixed
again), not by a PCA rerun that tied eigenvalues could turn; a moving extent
projects the points on the one row of R it needs.

The optimizer is a derivative-free pattern search over the 6-vector
(EulerXYZ angles of R, translation deltas from t0): coordinate polls
first, seeded random poll directions when a coordinate cycle stalls (the
descent cone of a kinked objective can exclude every coordinate axis), and
an acceleration step along each cycle's net movement. Deterministic
multi-start on top: restart #0 is the initial pose, the rest are drawn
from the seed. Identical inputs (expression, scene, config including seed)
produce identical results; evaluation order is fixed and nothing depends
on wall clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .costs import EvalContext, EvalError, evaluate, motion_subjects
from .errors import ManiplangError
from .geometry import (
    Point3,
    PointCloud,
    PoseSE3,
    euler_from_rotation,
    fix_axis_sign,
    rotated_extent,
    rotation_xyz,
)
from .language.ast import TypedExpr
from .scene import GRIPPER_NAME, Scene

_ROT_STEP = 0.25  # initial pattern step, radians
_TRANS_STEP = 0.1  # initial pattern step, meters
_STEP_FLOOR = 1e-7


class SolverError(ManiplangError):
    pass


class NoMovingPartsError(SolverError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    alpha: float = 0.1
    beta: float = 0.05
    max_iterations: int = 2000
    restarts: int = 8
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.beta, self.tolerance]).all():
            raise SolverError("alpha, beta and tolerance must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise SolverError("regularizer weights must be non-negative")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise SolverError("need at least the initial-pose restart")
        if self.tolerance <= 0:
            raise SolverError("tolerance must be positive")


@dataclass(frozen=True)
class SolveResult:
    pose: PoseSE3
    objective: float
    cost_term: float
    reg_translation: float
    reg_rotation: float
    iterations: int
    converged: bool
    restart_index: int
    total_evaluations: int

    def to_json(self) -> dict:
        return {
            "pose": {
                "rotation": [float(v) for v in self.pose.rotation.reshape(-1)],
                "translation": [
                    self.pose.translation.x,
                    self.pose.translation.y,
                    self.pose.translation.z,
                ],
            },
            "objective": self.objective,
            "cost_term": self.cost_term,
            "reg_translation": self.reg_translation,
            "reg_rotation": self.reg_rotation,
            "iterations": self.iterations,
            "converged": self.converged,
            "restart_index": self.restart_index,
            "total_evaluations": self.total_evaluations,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def initial_pose(scene: Scene) -> PoseSE3:
    """The gripper's starting pose; the scene stores position only, so the
    rotation is the identity."""
    return PoseSE3.identity(scene.gripper_position)


def partition_moving_static(scene: Scene) -> tuple[frozenset[str], frozenset[str]]:
    """Split part names into gripper-attached and stationary.

    A part moves when it is grasped, shares an explicit object label with a
    grasped part, or (label fallback) its space-tokenized name starts with
    the grasped part's full token sequence, so "knife blade" rides with a
    grasped "knife". The gripper itself always moves and is not a part.
    """
    grasped_info = [
        (g, scene.object_of(g), tuple(g.split())) for g in sorted(scene.grasped)
    ]
    moving: set[str] = set()
    for name in scene.parts:
        if name in scene.grasped:
            moving.add(name)
            continue
        obj = scene.object_of(name)
        tokens = tuple(name.split())
        for _, g_obj, g_tokens in grasped_info:
            if obj is not None and g_obj is not None:
                if obj == g_obj:
                    moving.add(name)
                    break
            elif tokens[: len(g_tokens)] == g_tokens:
                moving.add(name)
                break
    return frozenset(moving), frozenset(scene.parts) - moving


def transform_scene(scene: Scene, pose: PoseSE3, moving: frozenset[str] | None = None) -> Scene:
    """Scene after the gripper (and attached parts) move from the initial pose
    to `pose`; the pre-move state is appended to history."""
    if moving is None:
        moving, _ = partition_moving_static(scene)
    t0 = scene.gripper_position.as_array()
    t = pose.translation.as_array()
    # Static parts are shared, not copied.
    parts = {
        name: PointCloud((cloud.coords - t0) @ pose.rotation.T + t) if name in moving else cloud
        for name, cloud in scene.parts.items()
    }
    return Scene(
        parts=parts,
        grasped=scene.grasped,
        gripper_position=pose.translation,
        gripper_open_fraction=scene.gripper_open_fraction,
        history=scene.history + (scene.snapshot(),),
        objects=dict(scene.objects),
    )


class _PosedContext(EvalContext):
    """What `transform_scene` would give for the pose `place` sets, read through
    part summaries. A summary that fails (missing part, degenerate axis)
    raises each time a word reads it, like on the moved scene."""

    def __init__(self, scene: Scene, moving: frozenset[str]):
        super().__init__(replace(scene, history=scene.history + (scene.snapshot(),)))
        self.moving = moving
        self.t0 = scene.gripper_position.as_array()
        self._at_start: dict = {}

    def place(self, rel: np.ndarray, t: np.ndarray) -> None:
        self.rel, self.t = rel, t

    def _start(self, summary, *args):
        """`summary` at the start pose, computed on first read."""
        key = (summary, *args)
        if key not in self._at_start:
            self._at_start[key] = summary(self, *args)
        return self._at_start[key]

    def resolve_point(self, name: str) -> np.ndarray:
        return self.t if name == GRIPPER_NAME else super().resolve_point(name)

    def part_centroid(self, name: str) -> np.ndarray:
        c = self._start(EvalContext.part_centroid, name)
        return self.rel @ (c - self.t0) + self.t if name in self.moving else c

    def part_axis(self, name: str) -> np.ndarray:
        a = self._start(EvalContext.part_axis, name)
        return fix_axis_sign(self.rel @ a) if name in self.moving else a

    def part_extent(self, name: str, dimension: str) -> float:
        if name in self.moving:
            return rotated_extent(self.resolve_cloud(name), self.rel, dimension)
        return self._start(EvalContext.part_extent, name, dimension)

    def part_line(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.part_centroid(name), self.part_axis(name)


def objective(expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig) -> float:
    """The solver's full objective at one pose."""
    return objective_terms(expr, scene, pose, cfg)[0]


def objective_terms(
    expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig
) -> tuple[float, float, float, float]:
    """(objective, cost term, translation regularizer, rotation regularizer)."""
    ctx = _PosedContext(scene, partition_moving_static(scene)[0])
    t = pose.translation.as_array()
    ctx.place(pose.rotation, t)
    return _terms(expr, ctx, pose.rotation, t - ctx.t0, cfg)


def _terms(
    expr: TypedExpr, ctx: _PosedContext, rel: np.ndarray, dt: np.ndarray, cfg: SolveConfig
) -> tuple[float, float, float, float]:
    """The one objective: the search minimizes exactly what objective_terms reports."""
    cost = evaluate(expr, ctx)
    reg_t = float(np.linalg.norm(dt))
    euler = euler_from_rotation(rel)
    reg_r = abs(euler.rx) + abs(euler.ry) + abs(euler.rz)
    return cost + cfg.alpha * reg_t + cfg.beta * reg_r, cost, reg_t, reg_r


def solve(expr: TypedExpr, scene: Scene, cfg: SolveConfig | None = None) -> SolveResult:
    """Find the pose minimizing the objective; deterministic in (expr, scene, cfg)."""
    cfg = cfg or SolveConfig()
    if expr.sort != "cost":
        raise EvalError(f"solve needs a cost-sorted expression, got {expr.sort!r}")
    moving, _ = partition_moving_static(scene)
    subjects = motion_subjects(expr)
    movable = set(moving) | {GRIPPER_NAME}
    if subjects and subjects.isdisjoint(movable):
        raise NoMovingPartsError(
            f"expression constrains {sorted(subjects)} but nothing grasped moves"
        )

    ctx = _PosedContext(scene, moving)
    t0 = ctx.t0

    def f(x: np.ndarray) -> float:
        rel = rotation_xyz(x[0], x[1], x[2])
        ctx.place(rel, t0 + x[3:6])
        return _terms(expr, ctx, rel, x[3:6], cfg)[0]

    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF  # SeedSequence wants unsigned 64-bit
    rng = np.random.default_rng(seed)
    starts = [np.zeros(6)]
    for _ in range(cfg.restarts - 1):
        euler = rng.uniform(-np.pi / 2, np.pi / 2, size=3)
        trans = rng.uniform(-0.2, 0.2, size=3)
        starts.append(np.concatenate([euler, trans]))

    best: tuple[float, int, np.ndarray, int, bool] | None = None
    total_evals = 0
    for index, x_start in enumerate(starts):
        poll_rng = np.random.default_rng((seed, index))
        x, fx, evals, converged = _pattern_search(f, x_start, cfg, poll_rng)
        total_evals += evals
        key = (fx, index)
        if best is None or key < (best[0], best[1]):
            best = (fx, index, x, evals, converged)

    assert best is not None
    _, restart_index, x, evals, converged = best
    pose = PoseSE3(rotation_xyz(x[0], x[1], x[2]), Point3.from_array(t0 + x[3:6]))
    obj, cost, reg_t, reg_r = objective_terms(expr, scene, pose, cfg)
    return SolveResult(
        pose=pose,
        objective=obj,
        cost_term=cost,
        reg_translation=reg_t,
        reg_rotation=reg_r,
        iterations=evals,
        converged=converged,
        restart_index=restart_index,
        total_evaluations=total_evals,
    )


_RANDOM_POLLS = 12
_INIT_STEPS = np.array([_ROT_STEP] * 3 + [_TRANS_STEP] * 3)


def _poll(f, x, fx, scale, directions, evals, budget):
    """Greedy +/- probes along each direction; returns the improved point."""
    improved = False
    for direction in directions:
        if evals[0] >= budget:
            break
        for sign in (1.0, -1.0):
            trial = x + sign * scale * direction
            ft = f(trial)
            evals[0] += 1
            if ft < fx:
                x, fx = trial, ft
                improved = True
                break
            if evals[0] >= budget:
                break
    return x, fx, improved


def _pattern_search(
    f, x0: np.ndarray, cfg: SolveConfig, rng
) -> tuple[np.ndarray, float, int, bool]:
    """Pattern search with shrink: each cycle polls the coordinate directions,
    falls back to seeded random directions when those stall, then accelerates
    along the cycle's net movement. Steps halve when a full cycle improves by
    less than the tolerance; converged once they bottom out."""
    evals = [0]
    x = np.array(x0, dtype=float)
    fx = f(x)
    evals[0] += 1
    shrink = 1.0
    eye = np.eye(6)
    converged = False
    while evals[0] < cfg.max_iterations:
        cycle_start = fx
        scale = _INIT_STEPS * shrink
        x1, fx1, improved = _poll(f, x, fx, scale, eye, evals, cfg.max_iterations)
        if not improved and evals[0] < cfg.max_iterations:
            directions = rng.normal(size=(_RANDOM_POLLS, 6))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            x1, fx1, improved = _poll(f, x1, fx1, scale, directions, evals, cfg.max_iterations)
        if improved:
            while evals[0] < cfg.max_iterations:
                direction = x1 - x
                if not np.any(direction):
                    break
                trial = x1 + direction
                ft = f(trial)
                evals[0] += 1
                if ft < fx1:
                    x, fx = x1, fx1
                    x1, fx1 = trial, ft
                else:
                    break
        x, fx = x1, fx1
        if cycle_start - fx < cfg.tolerance:
            if shrink * float(_INIT_STEPS.max()) <= _STEP_FLOOR:
                converged = True
                break
            shrink *= 0.5
    return x, fx, evals[0], converged
