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
projects the part's extreme points (the same floats) on the one row of R it needs.

Where no term of the cost sum reads t (`costs.translation_term`), t0 is best;
where one move term |d*t + b(R)| alone reads it and alpha <= |d|, the t* that
zeroes it is: |d*t + b| + alpha*|t - t0| >= alpha*|t* - t0|, equal at t*. Each
rotation is then scored at its own t*, so the search is over three angles
(variable projection, Golub & Pereyra 1973). Other programs search all six.
One pose map (`_search_space`) reads every search point as a pose.

The optimizer is a derivative-free pattern search over the 6-vector
(EulerXYZ angles of R, translation deltas from t0), or over its three angles
where t has that closed form: coordinate polls first, seeded random poll
directions when a coordinate cycle stalls (the descent cone of a kinked
objective can exclude every coordinate axis), and an acceleration step along
each cycle's net movement. Polls are opportunistic (Hooke & Jeeves): a probe
that improves is taken before the next direction is tried. Deterministic
multi-start on top: restart #0 is the initial pose, the rest are drawn from
the seed (the same draws in both searches). Restart j stops at the start of
its cycle c once its point x lies in a lower-index restart i's poll box,
|x - y| <= j's step in every coordinate, where y is i's point at the start of
its own cycle c, or i's final point if i ended before (the duplicate test of
multi-level single linkage, Rinnooy Kan & Timmer 1987). Comparing equal cycle
indices makes the rule schedule-independent: j waits for a y that i has not
reached yet, so the result is that of running the restarts one after another.
Each restart fills one record (`_Restart`); the winner is the lowest
objective over all records, stopped restarts included, the lowest index on a tie.

The objective scores a stack of poses in one numpy pass, so the search runs
as generators that ask for points instead of calling a function. Restarts
run in lockstep groups of `_LOCKSTEP`; each round scores every live
restart's request in one call; a round with a failing row is scored again in
halves, down to the rows that fail. A cycle's first request asks for every
probe its polls can need before they move: the outcome tree of the three
angle directions, that is each one's +/- probes from every point the ones
before it can leave the poll at (+ improved, - improved, neither; 26 rows);
the other directions' probes from the cycle's start; and the random
fallback's, whose directions are drawn ahead and kept until a fallback poll
uses them, so a restart's draws are those of a one-after-another run. A poll
reads its probes from those rows, keyed by their bytes, and asks for all
those still ahead where the rows run out. An acceleration ray asks for one
point, then twice as many per request, as far as the budget allows. Values
are consumed in order up to the first improvement (or a ray's first point
that does not improve); the rest were speculative and are neither counted
nor allowed to fail the solve. Every restart therefore takes exactly the
steps, and reports the evaluation count, of a one-probe-at-a-time run.
Identical inputs (expression, scene, config including seed) produce
identical results; nothing depends on wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import files
from .costs import EvalContext, EvalError, evaluate, motion_subjects, move_residual, translation_term
from .errors import EXIT_SOLVER, ManiplangError
from .geometry import (  # noqa: F401 (perfbench/tracing.py patches euler_from_rotation and PointCloud here)
    Point3,
    PointCloud,
    PoseSE3,
    euler_angles,
    euler_from_rotation,
    extreme_points,
    fix_axis_sign,
    norm,
    rotated_extent,
    rotation_xyz,
    transform_cloud,
)
from .language.ast import TypedExpr
from .scene import GRIPPER_NAME, Scene

_ROT_STEP = 0.25  # initial pattern step, radians
_TRANS_STEP = 0.1  # initial pattern step, meters
_STEP_FLOOR = 1e-7


class SolverError(ManiplangError):
    exit_code = EXIT_SOLVER


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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        t = self.pose.translation
        doc["pose"] = {"rotation": self.pose.rotation.reshape(-1).tolist(), "translation": [t.x, t.y, t.z]}
        return doc

    def dumps(self) -> str:
        return files.dumps(self.to_json())


def initial_pose(scene: Scene) -> PoseSE3:
    """The gripper's starting pose; the scene stores position only, so the
    rotation is the identity."""
    return PoseSE3.identity(scene.gripper_position)


def partition_moving_static(scene: Scene) -> tuple[frozenset[str], frozenset[str]]:
    """Split part names into gripper-attached and stationary.

    A part moves when it rides with a grasped part, itself included: equal
    object labels decide when both parts have one; otherwise its whitespace-
    tokenized name must start with the grasped name's tokens, so "knife blade"
    rides with a grasped "knife". The gripper always moves and is not a part.
    """

    def rides_with(name: str, grasped: str) -> bool:
        label, grasped_label = scene.objects.get(name), scene.objects.get(grasped)
        if label is not None and grasped_label is not None:
            return label == grasped_label
        prefix = grasped.split()
        return name.split()[: len(prefix)] == prefix

    moving = frozenset(name for name in scene.parts if any(rides_with(name, g) for g in scene.grasped))
    return moving, frozenset(scene.parts) - moving


def transform_scene(scene: Scene, pose: PoseSE3, moving: frozenset[str] | None = None) -> Scene:
    """Scene after the gripper (and attached parts) move from the initial pose
    to `pose`; the pre-move state is appended to history."""
    if moving is None:
        moving, _ = partition_moving_static(scene)
    start = initial_pose(scene)
    # Static parts are shared, not copied.
    parts = {
        name: transform_cloud(cloud, start, pose) if name in moving else cloud
        for name, cloud in scene.parts.items()
    }
    return replace(
        scene, parts=parts, gripper_position=pose.translation, history=scene.history + (scene.snapshot(),)
    )


class _PosedContext(EvalContext):
    """What `transform_scene` would give for each pose of the stack `place`
    sets, read through part summaries. A summary that fails (missing part,
    degenerate axis) raises each time a word reads it, like on the moved scene."""

    def __init__(self, scene: Scene):
        super().__init__(replace(scene, history=scene.history + (scene.snapshot(),)))
        self.moving, _ = partition_moving_static(scene)
        self.t0 = scene.gripper_position.as_array()
        self.rel = None

    def place(self, rel: np.ndarray, t: np.ndarray) -> None:
        """Poses to read: rotations (K, 3, 3) and gripper positions (K, 3).
        What depends on the rotations alone is kept until `rel` changes, so the
        closed-form translation and the objective turn each part once."""
        if rel is not self.rel:
            self._turned = {}
        self.rel, self.t = rel, t

    def _turn(self, kind: str, name: str, compute) -> np.ndarray:
        """`compute()` of a moving part at the placed rotations, kept under (kind, name)."""
        if (kind, name) not in self._turned:
            value = compute()
            value.setflags(write=False)
            self._turned[kind, name] = value
        return self._turned[kind, name]

    def resolve_point(self, name: str) -> np.ndarray:
        if name == GRIPPER_NAME:
            return self.t
        c = super().resolve_point(name)
        return self._turn("centroid", name, lambda: self.rel @ (c - self.t0)) + self.t if name in self.moving else c

    def part_axis(self, name: str) -> np.ndarray:
        a = super().part_axis(name)
        return self._turn("axis", name, lambda: fix_axis_sign(self.rel @ a)) if name in self.moving else a

    def part_extent(self, name: str, dimension: str):
        if name in self.moving:
            kept = self._summary("extreme points", name, lambda: extreme_points(self.resolve_cloud(name)))
            return self._turn(dimension, name, lambda: rotated_extent(kept, self.rel, dimension))
        return super().part_extent(name, dimension)


def objective(expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig) -> float:
    """The solver's full objective at one pose."""
    return objective_terms(expr, scene, pose, cfg)[0]


def objective_terms(
    expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig
) -> tuple[float, float, float, float]:
    """(objective, cost term, translation regularizer, rotation regularizer)."""
    return _pose_terms(expr, _PosedContext(scene), pose, cfg)


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


def _search_space(expr: TypedExpr, ctx: _PosedContext, cfg: SolveConfig):
    """(n, poses): the search's dimension and its pose map. `poses(xs)` gives
    the rotations and translation deltas of a stack of points (K, n): EulerXYZ
    angles then the delta (n = 6), or the angles alone at the module
    docstring's closed-form delta t* - t0 = -r/d, r the move term's residual at
    t0 (n = 3)."""
    form = translation_term(expr, ctx.moving)
    if form is None or (form[0] is not None and cfg.alpha > abs(form[1])):
        return 6, lambda xs: (rotation_xyz(xs[:, 0], xs[:, 1], xs[:, 2]), xs[:, 3:])
    term, d = form

    def poses(xs: np.ndarray):
        rel = rotation_xyz(xs[:, 0], xs[:, 1], xs[:, 2])
        if term is None:
            return rel, np.zeros((len(xs), 3))
        ctx.place(rel, ctx.t0[None].repeat(len(rel), 0))
        with np.errstate(all="ignore"):
            dt = -move_residual(term, ctx) / d
            finite = np.isfinite(np.sum(dt * dt))  # so |dt| is finite too
        if not finite:
            raise EvalError("closed-form gripper translation is not finite")
        return rel, dt

    return 3, poses


def _objective_rows(expr: TypedExpr, ctx: _PosedContext, xs: np.ndarray, cfg: SolveConfig, poses) -> list:
    """The objective at each search point, a row of xs, read through the pose
    map `poses` (`_search_space`). A row whose evaluation fails holds its typed
    error instead, so only a search that consumes it raises."""
    try:
        rel, dt = poses(xs)
        return _terms(expr, ctx, rel, ctx.t0 + dt, dt, cfg)[0].tolist()
    except ManiplangError as exc:
        if len(xs) == 1:
            return [exc]
    # Some row failed: score each half on its own, down to the rows that fail.
    half = len(xs) // 2
    return [v for part in (xs[:half], xs[half:]) for v in _objective_rows(expr, ctx, part, cfg, poses)]


def solve(expr: TypedExpr, scene: Scene, cfg: SolveConfig | None = None) -> SolveResult:
    """Find the pose minimizing the objective; deterministic in (expr, scene, cfg)."""
    cfg = cfg or SolveConfig()
    if expr.sort != "cost":
        raise EvalError(f"solve needs a cost-sorted expression, got {expr.sort!r}")
    ctx = _PosedContext(scene)
    subjects = motion_subjects(expr)
    if subjects and subjects.isdisjoint(ctx.moving | {GRIPPER_NAME}):
        moves = f"only {sorted(ctx.moving)} can move" if ctx.moving else "nothing grasped moves"
        raise NoMovingPartsError(f"expression constrains {sorted(subjects)} but {moves}")

    n, poses = _search_space(expr, ctx, cfg)
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF  # SeedSequence wants unsigned 64-bit
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n)] + [
        np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, size=3), rng.uniform(-0.2, 0.2, size=3)])[:n]
        for _ in range(cfg.restarts - 1)
    ]

    restarts = [_Restart() for _ in range(cfg.restarts)]
    for first in range(0, cfg.restarts, _LOCKSTEP):
        group = range(first, min(first + _LOCKSTEP, cfg.restarts))
        searches = {
            index: _pattern_search(starts[index], cfg, np.random.default_rng((seed, index)), restarts, index)
            for index in group
        }
        _lockstep(searches, lambda xs: _objective_rows(expr, ctx, xs, cfg, poses))

    restart_index, best = min(enumerate(restarts), key=lambda item: item[1].fx)  # ties: the lowest index
    rel, dt = poses(best.x[None])
    pose = PoseSE3(rel[0], Point3.from_array(ctx.t0 + dt[0]))
    obj, cost, reg_t, reg_r = _pose_terms(expr, ctx, pose, cfg)
    return SolveResult(
        pose=pose,
        objective=obj,
        cost_term=cost,
        reg_translation=reg_t,
        reg_rotation=reg_r,
        iterations=best.evals,
        converged=best.converged,
        restart_index=restart_index,
        total_evaluations=sum(restart.evals for restart in restarts),
    )


def _lockstep(searches: dict, score) -> None:
    """Run the searches (restart index -> generator) together: each round
    scores every pending request with one `score` call. A search that
    consumes a failed row stops, and so does every search of a higher index,
    which a one-after-another run would never reach (and which may be waiting
    for the failed one's points); once the others finish, the error of the
    lowest restart index is raised.

    A search waiting for a lower index's point asks for no rows. The lowest
    pending index never waits, so no round is empty."""
    pending = {index: next(search) for index, search in searches.items()}
    failures = {}
    while pending:
        values = score(np.concatenate(list(pending.values())))
        start = 0
        for index, xs in list(pending.items()):
            rows = values[start : start + len(xs)]
            start += len(xs)
            try:
                pending[index] = searches[index].send(rows)
            except StopIteration:
                del pending[index]
            except ManiplangError as exc:
                failures[index] = exc
                del pending[index]
        if failures:
            pending = {index: xs for index, xs in pending.items() if index < min(failures)}
    if failures:
        raise failures[min(failures)]


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


def _keys(rows: np.ndarray) -> list:
    """Each row's bytes: points built alike are keyed alike."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _signed(directions) -> np.ndarray:
    """Each direction and its negative, (2 * directions, n): the poll's
    probe steps at unit scale. Scaled, a row is the same float as scaling the
    direction first."""
    return (directions[:, None] * _SIGNS).reshape(-1, directions.shape[1])


def _outcome_tree(steps) -> np.ndarray:
    """Every probe a greedy poll along `steps` ((+, -) row pairs, `_signed`)
    can ask for, as offsets from its start: each direction's two probes from
    each point the directions before it can leave the poll at (+ improved, -
    improved, neither), 3**d - 1 rows for d directions. The steps lie on
    different axes, so the start plus an offset is the point the poll builds
    one step at a time, to the bit (a point that differed would only be asked
    for again)."""
    n = steps.shape[1]
    points, probes = np.zeros((1, n)), []
    for pair in steps.reshape(-1, 2, n):
        tried = points[:, None] + pair
        probes.append(tried.reshape(-1, n))
        points = np.concatenate([tried, points[:, None]], axis=1).reshape(-1, n)
    return np.concatenate(probes)


def _poll(x, fx, steps, evals, budget, scored):
    """Greedy probes along `steps` ((+, -) row pairs), moving to a probe
    that improves and going on with the next direction from there. Values
    are consumed in order up to the first improvement, and only the consumed
    ones count. A probe is read from `scored` (`_keys` -> value) where it was
    scored ahead; at the first that was not, one request asks for every probe
    still ahead from the current point (as many as the budget allows).
    Returns (point, value, evaluations, improved)."""
    improved = False
    probe = 0
    while probe < len(steps) and evals < budget:
        trials = x + steps[probe : probe + budget - evals]
        keys = _keys(trials)
        for k, key in enumerate(keys):
            if key not in scored:
                scored.update(zip(keys[k:], (yield trials[k:])))
            ft = _consume(scored[key])
            evals += 1
            if ft < fx:
                hit = probe + k
                x, fx, improved = trials[k], ft, True
                probe = hit + 2 - hit % 2  # the next direction's + probe
                break
        else:
            probe += len(trials)
    return x, fx, evals, improved


def _accelerate(x, x1, fx1, evals, budget):
    """Steps (x, x1) -> (x1, x1 + (x1 - x)) while that improves. Each request
    computes the ray's next points with that recurrence, one at first and then
    twice as many as before, as far as the budget allows; only values consumed
    up to the first that does not improve count. Returns (point, value,
    evaluations)."""
    ahead = 1
    while evals < budget:
        a, b, ray = x.tolist(), x1.tolist(), []  # the same floats as numpy's, at less cost per point
        while len(ray) < min(ahead, budget - evals) and any(q - p for p, q in zip(a, b)):
            a, b = b, [q + (q - p) for p, q in zip(a, b)]
            ray.append(b)
        if not ray:
            break
        ray = np.array(ray)
        values = yield ray
        for trial, value in zip(ray, values):
            ft = _consume(value)
            evals += 1
            if not ft < fx1:
                return x1, fx1, evals
            x, x1, fx1 = x1, trial, ft
        ahead *= 2
    return x1, fx1, evals


class _Restart:
    """One restart: its point at the start of each of its search cycles and,
    once its search has returned, its final point x, value fx, evaluations and
    whether it converged."""

    def __init__(self):
        self.cycles, self.x, self.fx, self.evals, self.converged = [], None, None, 0, False

    def at(self, cycle: int) -> np.ndarray | None:
        """The point at the start of `cycle`, or the final point if the search
        ended before it; None while neither is known."""
        return self.cycles[cycle] if cycle < len(self.cycles) else self.x


def _in_lower_box(x, scale, cycle, lower):
    """Whether x lies in the poll box, |x - y| <= scale in every coordinate,
    of a lower-index restart's point y at the start of its own `cycle` (see
    `_Restart.at`). While a point it needs is not known yet, it asks for no rows."""
    for restart in lower:
        while (y := restart.at(cycle)) is None:
            yield np.empty((0, len(x)))
        if np.all(np.abs(x - y) <= scale):
            return True
    return False


def _pattern_search(x0: np.ndarray, cfg: SolveConfig, rng, restarts: list, index: int):
    """Pattern search with shrink: each cycle polls the coordinate directions,
    falls back to seeded random directions when those stall, then accelerates
    along the cycle's net movement. Steps halve when a full cycle improves by
    less than the tolerance; converged once they bottom out. The search stops
    at the start of a cycle whose point lies in a lower-index restart's poll
    box (`_in_lower_box`). It fills its record, `restarts[index]`.

    Its dimension n is x0's: the leading n of the six coordinates. A
    generator: it yields each batch of points it needs scored, (m, n), and is
    sent their values."""
    budget = cfg.max_iterations
    x = np.array(x0, dtype=float)
    fx = _consume((yield x[None])[0])
    evals = 1
    shrink = 1.0
    n = len(x)
    init_steps, coordinate = _INIT_STEPS[:n], _signed(np.eye(n))
    # The coordinate poll's probes scored ahead: the outcome tree of the three
    # angle directions, then the other directions' probes from x.
    tree = np.concatenate([_outcome_tree(coordinate[:6]), coordinate[6:]])
    record, lower = restarts[index], restarts[:index]
    fallback = None
    while evals < budget:
        record.cycles.append(x)
        scale = init_steps * shrink
        if (yield from _in_lower_box(x, scale, len(record.cycles) - 1, lower)):
            break
        cycle_start = fx
        if fallback is None:  # drawn ahead, and kept until a fallback poll uses them
            directions = rng.normal(size=(_RANDOM_POLLS, n))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            fallback = _signed(directions)
            offsets = np.concatenate([tree, fallback])
        # The cycle's first request: the tree, and the fallback's probes from x.
        probes = x + scale * offsets
        scored = dict(zip(_keys(probes), (yield probes)))
        x1, fx1, evals, improved = yield from _poll(x, fx, scale * coordinate, evals, budget, scored)
        if not improved and evals < budget:
            x1, fx1, evals, improved = yield from _poll(x1, fx1, scale * fallback, evals, budget, scored)
            fallback = None
        if improved:
            x1, fx1, evals = yield from _accelerate(x, x1, fx1, evals, budget)
        x, fx = x1, fx1
        if cycle_start - fx < cfg.tolerance:
            if shrink * float(init_steps.max()) <= _STEP_FLOOR:
                record.converged = True
                break
            shrink *= 0.5
    record.x, record.fx, record.evals = x, fx, evals
