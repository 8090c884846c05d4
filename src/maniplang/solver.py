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
an acceleration step along each cycle's net movement. Polls are
opportunistic (Hooke & Jeeves): a probe that improves is taken before the
next direction is tried. Deterministic multi-start on top: restart #0 is
the initial pose, the rest are drawn from the seed.

The objective scores a stack of poses in one numpy pass, so the search runs
as generators that ask for points instead of calling a function. Restarts
run in lockstep groups of `_LOCKSTEP`; each round scores every live
restart's request in one call. A poll asks for all its probes still ahead
at once and consumes their values in order up to the first improvement;
the rest were speculative and are neither counted nor allowed to fail the
solve. Every restart therefore takes exactly the steps, and reports the
evaluation count, of a one-probe-at-a-time run. Identical inputs
(expression, scene, config including seed) produce identical results;
nothing depends on wall clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .costs import EvalContext, EvalError, evaluate, motion_subjects
from .errors import ManiplangError
from .geometry import (  # noqa: F401 (perfbench/tracing.py patches euler_from_rotation here)
    Point3,
    PointCloud,
    PoseSE3,
    euler_angles,
    euler_from_rotation,
    fix_axis_sign,
    norm,
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
    """What `transform_scene` would give for each pose of the stack `place`
    sets, read through part summaries. A summary that fails (missing part,
    degenerate axis) raises each time a word reads it, like on the moved scene."""

    def __init__(self, scene: Scene, moving: frozenset[str]):
        super().__init__(replace(scene, history=scene.history + (scene.snapshot(),)))
        self.moving = moving
        self.t0 = scene.gripper_position.as_array()
        self._at_start: dict = {}

    def place(self, rel: np.ndarray, t: np.ndarray) -> None:
        """Poses to read: rotations (K, 3, 3) and gripper positions (K, 3)."""
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

    def part_extent(self, name: str, dimension: str):
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
    return _pose_terms(expr, _PosedContext(scene, partition_moving_static(scene)[0]), pose, cfg)


def _pose_terms(
    expr: TypedExpr, ctx: _PosedContext, pose: PoseSE3, cfg: SolveConfig
) -> tuple[float, float, float, float]:
    """`_terms` at one pose, as a stack of one."""
    t = pose.translation.as_array()
    terms = _terms(expr, ctx, pose.rotation[None], t[None], (t - ctx.t0)[None], cfg)
    return tuple(float(np.ravel(v)[0]) for v in terms)


def _terms(
    expr: TypedExpr, ctx: _PosedContext, rel: np.ndarray, t: np.ndarray, dt: np.ndarray, cfg: SolveConfig
):
    """The one objective, at K poses at once (rotations `rel`, gripper
    positions `t`, translation deltas `dt`): objective, cost term and the two
    regularizers, one value per pose. The search minimizes exactly what
    objective_terms reports."""
    ctx.place(rel, t)
    cost = evaluate(expr, ctx)
    reg_t = norm(dt)
    reg_r = np.abs(euler_angles(rel)).sum(-1)
    return cost + cfg.alpha * reg_t + cfg.beta * reg_r, cost, reg_t, reg_r


def _objective_rows(expr: TypedExpr, ctx: _PosedContext, xs: np.ndarray, cfg: SolveConfig) -> list:
    """The objective at each search point, a row (EulerXYZ angles, translation
    delta) of xs. A row whose evaluation fails holds its typed error instead,
    so only a search that consumes it raises."""
    rel = rotation_xyz(xs[:, 0], xs[:, 1], xs[:, 2])
    try:
        return _terms(expr, ctx, rel, ctx.t0 + xs[:, 3:], xs[:, 3:], cfg)[0].tolist()
    except ManiplangError as exc:
        if len(xs) == 1:
            return [exc]
    # Some row failed: score each on its own, so that it fails alone.
    return [v for k in range(len(xs)) for v in _objective_rows(expr, ctx, xs[k : k + 1], cfg)]


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
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF  # SeedSequence wants unsigned 64-bit
    rng = np.random.default_rng(seed)
    starts = [np.zeros(6)]
    for _ in range(cfg.restarts - 1):
        euler = rng.uniform(-np.pi / 2, np.pi / 2, size=3)
        trans = rng.uniform(-0.2, 0.2, size=3)
        starts.append(np.concatenate([euler, trans]))

    best: tuple[float, int, np.ndarray, int, bool] | None = None
    total_evals = 0
    for first in range(0, cfg.restarts, _LOCKSTEP):
        group = range(first, min(first + _LOCKSTEP, cfg.restarts))
        searches = {
            index: _pattern_search(starts[index], cfg, np.random.default_rng((seed, index)))
            for index in group
        }
        results = _lockstep(searches, lambda xs: _objective_rows(expr, ctx, xs, cfg))
        for index in group:
            x, fx, evals, converged = results[index]
            total_evals += evals
            key = (fx, index)
            if best is None or key < (best[0], best[1]):
                best = (fx, index, x, evals, converged)

    assert best is not None
    _, restart_index, x, evals, converged = best
    pose = PoseSE3(rotation_xyz(x[0], x[1], x[2]), Point3.from_array(ctx.t0 + x[3:6]))
    obj, cost, reg_t, reg_r = _pose_terms(expr, ctx, pose, cfg)
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


def _lockstep(searches: dict, score) -> dict:
    """Run the searches (restart index -> generator) together: each round
    scores every pending request with one `score` call. Returns each
    search's result. A search that consumes a failed row stops; once the
    others finish, the error of the lowest restart index is raised, as a
    one-after-another run would raise it first."""
    pending = {index: next(search) for index, search in searches.items()}
    results, failures = {}, {}
    while pending:
        values = score(np.concatenate(list(pending.values())))
        start = 0
        for index, xs in list(pending.items()):
            rows = values[start : start + len(xs)]
            start += len(xs)
            try:
                pending[index] = searches[index].send(rows)
            except StopIteration as done:
                results[index] = done.value
                del pending[index]
            except ManiplangError as exc:
                failures[index] = exc
                del pending[index]
    if failures:
        raise failures[min(failures)]
    return results


_RANDOM_POLLS = 12
_INIT_STEPS = np.array([_ROT_STEP] * 3 + [_TRANS_STEP] * 3)
_SIGNS = np.array([[1.0], [-1.0]])
# Restarts searched in lockstep; fixed, so memory stays flat as restarts grow.
_LOCKSTEP = 8


def _consume(value) -> float:
    """A scored row's value; a failed row raises its error."""
    if isinstance(value, ManiplangError):
        raise value
    return value


def _poll(x, fx, scale, directions, evals, budget):
    """Greedy +/- probes along each direction, moving to a probe that improves
    and going on with the next direction from there. Each yield asks for every
    probe still ahead from the current point (as many as the budget allows);
    values are consumed in order up to the first improvement, and only the
    consumed ones count. Returns (point, value, evaluations, improved)."""
    steps = ((scale * directions)[:, None] * _SIGNS).reshape(-1, 6)
    improved = False
    probe = 0
    while probe < len(steps) and evals < budget:
        trials = x + steps[probe : probe + budget - evals]
        values = yield trials
        for k, value in enumerate(values):
            ft = _consume(value)
            evals += 1
            if ft < fx:
                hit = probe + k
                x, fx, improved = trials[k], ft, True
                probe = hit + 2 - hit % 2  # the next direction's + probe
                break
        else:
            probe += len(trials)
    return x, fx, evals, improved


def _pattern_search(x0: np.ndarray, cfg: SolveConfig, rng):
    """Pattern search with shrink: each cycle polls the coordinate directions,
    falls back to seeded random directions when those stall, then accelerates
    along the cycle's net movement. Steps halve when a full cycle improves by
    less than the tolerance; converged once they bottom out.

    A generator: it yields each batch of points it needs scored, (m, 6), is
    sent their values, and returns (x, fx, evaluations, converged)."""
    budget = cfg.max_iterations
    x = np.array(x0, dtype=float)
    fx = _consume((yield x[None])[0])
    evals = 1
    shrink = 1.0
    eye = np.eye(6)
    converged = False
    while evals < budget:
        cycle_start = fx
        scale = _INIT_STEPS * shrink
        x1, fx1, evals, improved = yield from _poll(x, fx, scale, eye, evals, budget)
        if not improved and evals < budget:
            directions = rng.normal(size=(_RANDOM_POLLS, 6))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            x1, fx1, evals, improved = yield from _poll(x1, fx1, scale, directions, evals, budget)
        if improved:
            while evals < budget:
                direction = x1 - x
                if not np.any(direction):
                    break
                trial = x1 + direction
                ft = _consume((yield trial[None])[0])
                evals += 1
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
    return x, fx, evals, converged
