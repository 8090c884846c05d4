"""Gripper pose solver.

Minimizes  cost(scene with moved parts) + alpha * |t - t0|_2
           + beta * |euler(R)|_1
over the gripper end pose (R, t), starting from the identity rotation at the
gripper's position t0. Parts attached to the grasped object move rigidly
with the gripper; everything else stays put.

The objective moves no cloud: cost words read a part only through its
centroid, principal axis and extent, which a posed context maps in closed
form. A moving centroid maps as c -> R(c - t0) + t, a moving axis as
a -> R a (sign-fixed again), not by a PCA rerun that tied eigenvalues could
turn; a moving extent projects the part's extreme points (the same floats) on
the one row of R it needs. Each solve compiles the objective's cost, and the
closed-form translation's residual, once (`costs.compile_plan`): what reads
no moving part or the gripper is computed then, and each round runs the rest.

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
probe its polls can need before they move: x's 26 neighbours on its angle
grid (`_ANGLE_GRID`), the translation probes and the fallback's, read by
index (`_poll`); a poll that moves off those rows asks for the probes still
ahead. A ray asks for four points, then twice as many per request. Requests
also score three kinds of cycle ahead: the start carries the first cycle, a
cycle after two stalls the next stalled ones, and a ray after one that failed
at once the cycle that follows if it fails at once too. A cycle reads those
values only if its point, shrink and fallback draw are the ones predicted.
Fallback directions are drawn ahead, eight sets per generator call (the floats
of eight calls), and kept until a fallback poll uses them, so a restart's draws
are those of a one-after-another run. A request's values are read in one scan
up to the first improvement (or a ray's first point that does not improve);
the rest were speculative and are neither counted nor allowed to fail the
solve. A posed read turns K poses in one matrix-vector product, the floats of
K products (`_turn`). A row's value does not depend on its batch, so every
restart takes exactly the steps, and reports the evaluation count, of a
one-probe-at-a-time run. Identical inputs (expression, scene,
config including seed) produce identical results; nothing depends on wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import product
from numbers import Integral, Real
from operator import add, le, sub

import numpy as np

from . import files
from .costs import EvalContext, EvalError, compile_plan, evaluate, motion_subjects, move_residual, translation_term
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


def config_number(value, name: str, error: type[ManiplangError], whole: bool = False):
    """A config field's value as a Python float, or int if `whole`; a bool, a
    value of another type and an int past a float's range raise `error`."""
    if isinstance(value, bool) or not isinstance(value, Integral if whole else Real):
        raise error(f"{name} must be {'an integer' if whole else 'a real number'}, got {value!r}")
    try:
        return int(value) if whole else float(value)  # a numpy integer would wrap or overflow in the search
    except OverflowError:
        raise error(f"{name} must be finite") from None


@dataclass(frozen=True)
class SolveConfig:
    alpha: float = 0.1
    beta: float = 0.05
    max_iterations: int = 2000
    restarts: int = 8
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # annotations are strings: "int" or "float"
            object.__setattr__(self, f.name, config_number(getattr(self, f.name), f.name, SolverError, f.type == "int"))
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


def _turn(rel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`rel @ v` for a C-ordered stack (K, 3, 3) in one BLAS call, not K: the same dot product per float."""
    return (rel.reshape(-1, 3) @ v).reshape(rel.shape[:-1])


class _PosedContext(EvalContext):
    """What `transform_scene` would give for each pose of the stack `place`
    sets, read through part summaries. A summary that fails (missing part,
    degenerate axis) raises each time a word reads it, like on the moved scene."""

    def __init__(self, scene: Scene):
        super().__init__(replace(scene, history=scene.history + (scene.snapshot(),)))
        self.moving, _ = partition_moving_static(scene)
        self.posed = self.moving | {GRIPPER_NAME}
        self.t0 = scene.gripper_position.as_array()
        self.rel = None

    def place(self, rel: np.ndarray, t: np.ndarray) -> None:
        """Poses to read: rotations (K, 3, 3) and gripper positions (K, 3). What
        depends on the rotations alone is kept in `_turned` until `rel` changes,
        so the closed-form translation and the objective turn each part once."""
        if rel is not self.rel:
            self._turned = {}
        self.rel, self.t = rel, t

    def resolve_point(self, name: str) -> np.ndarray:
        if name == GRIPPER_NAME:
            return self.t
        if name not in self.moving:
            return super().resolve_point(name)
        if (turned := self._turned.get(("centroid", name))) is None:  # a moving part: turned once per stack
            turned = self._turned["centroid", name] = _turn(self.rel, super().resolve_point(name) - self.t0)
        return turned + self.t

    def part_axis(self, name: str) -> np.ndarray:
        if name not in self.moving:
            return super().part_axis(name)
        if (turned := self._turned.get(("axis", name))) is None:
            turned = self._turned["axis", name] = fix_axis_sign(_turn(self.rel, super().part_axis(name)))
            turned.setflags(write=False)  # every later read shares it
        return turned

    def part_extent(self, name: str, dimension: str):
        if name in self.moving:
            kept = self._summary("extreme points", name, lambda: extreme_points(self.resolve_cloud(name)))
            return self._summary(dimension, name, lambda: rotated_extent(kept, self.rel, dimension), self._turned)
        return super().part_extent(name, dimension)


def objective(expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig) -> float:
    """The solver's full objective at one pose."""
    return objective_terms(expr, scene, pose, cfg)[0]


def objective_terms(
    expr: TypedExpr, scene: Scene, pose: PoseSE3, cfg: SolveConfig
) -> tuple[float, float, float, float]:
    """(objective, cost term, translation regularizer, rotation regularizer)."""
    return _pose_terms(expr, _PosedContext(scene), pose, cfg)


def _pose_terms(expr, ctx: _PosedContext, pose: PoseSE3, cfg: SolveConfig) -> tuple[float, float, float, float]:
    """`_terms` at one pose, as a stack of one."""
    t = pose.translation.as_array()
    terms = _terms(expr, ctx, pose.rotation[None], t[None], (t - ctx.t0)[None], cfg)
    return tuple(float(np.ravel(v)[0]) for v in terms)


def _terms(expr, ctx: _PosedContext, rel: np.ndarray, t: np.ndarray, dt: np.ndarray, cfg: SolveConfig):
    """The one objective, at K poses at once (rotations `rel`, gripper
    positions `t`, translation deltas `dt`): objective, cost term and the two
    regularizers, one value per pose. `expr` is the cost expression or its
    plan against ctx. The search minimizes exactly what objective_terms reports."""
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
    form = translation_term(expr, ctx.posed)
    if form is None or (form[0] is not None and cfg.alpha > abs(form[1])):
        return 6, lambda xs: (rotation_xyz(xs[:, 0], xs[:, 1], xs[:, 2]), xs[:, 3:])
    term, d = form
    residual = None if term is None else move_residual(term, ctx)

    def poses(xs: np.ndarray):
        rel = rotation_xyz(xs[:, 0], xs[:, 1], xs[:, 2])
        if residual is None:
            return rel, np.zeros((len(xs), 3))
        ctx.place(rel, ctx.t0[None].repeat(len(rel), 0))
        with np.errstate(all="ignore"):
            dt = -residual() / d
            finite = np.isfinite(np.sum(dt * dt))  # so |dt| is finite too
        if not finite:
            raise EvalError("length |t - t0| of the closed-form gripper translation is not finite")
        return rel, dt

    return 3, poses


def _objective_rows(expr, ctx: _PosedContext, xs: np.ndarray, cfg: SolveConfig, poses) -> list:
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
    if subjects and subjects.isdisjoint(ctx.posed):
        moves = f"only {sorted(ctx.moving)} can move" if ctx.moving else "nothing grasped moves"
        raise NoMovingPartsError(f"expression constrains {sorted(subjects)} but {moves}")

    n, poses = _search_space(expr, ctx, cfg)
    plan = compile_plan(expr, ctx)
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
        _lockstep(searches, lambda xs: _objective_rows(plan, ctx, xs, cfg, poses))

    restart_index, best = min(enumerate(restarts), key=lambda item: item[1].fx)  # ties: the lowest index
    rel, dt = poses(np.array([best.x]))
    pose = PoseSE3(rel[0], Point3.from_array(ctx.t0 + dt[0]))
    obj, cost, reg_t, reg_r = _pose_terms(plan, ctx, pose, cfg)
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
# The 26 non-zero points of {-1, 0, 1}**3 (Hooke & Jeeves's exploratory
# moves), six wide, in the order a greedy poll along the three angles meets
# them: each angle's +/- probe from each point the angles before it can leave
# the poll at (+ improved, - improved, neither). The steps lie on different
# axes and no search point holds -0.0, so x + scale * row is the point the
# poll builds one step at a time, to the bit.
_ANGLE_GRID = np.array(
    [p + (s,) + (0,) * (5 - len(p)) for d in range(3) for p in product((1, -1, 0), repeat=d) for s in (1, -1)],
    dtype=float,
)
# Restarts searched in lockstep; fixed, so memory stays flat as restarts grow.
_LOCKSTEP = 8
_LADDER_AFTER, _LADDER_CAP = 2, 8  # stalls in a row before a cycle scores the next stalled ones too; most it scores


def _signed(directions) -> np.ndarray:
    """Each direction and its negative, (..., 2 * directions, n): the poll's
    probe steps at unit scale. Scaled, a row is the same float as scaling the
    direction first."""
    return (directions[..., None, :] * _SIGNS).reshape(*directions.shape[:-2], -1, directions.shape[-1])


def _poll(x, fx, steps, evals, budget, values, first, grid=False):
    """Greedy probes along `steps` ((+, -) row pairs), moving to a probe
    that improves and going on with the next direction from there. Values
    are read in one scan up to the first improvement, and only those read
    count. Probe p's value is row first + p of `values`, the cycle's first
    request, until the poll moves; with `grid`, angle d's is row
    3**d - 1 + 2 * path + sign wherever the poll is (`_ANGLE_GRID`; path: the
    earlier angles' outcomes in base 3, + 0, - 1, neither 2). Elsewhere one
    request asks for every probe still ahead (as many as the budget allows),
    read by position until the next move. Returns (point, value, evaluations,
    improved)."""
    improved, probe, path, rows, origin = False, 0, 0, values, -first
    while probe < len(steps) and evals < budget:
        if grid and probe < 6:  # angle d = probe // 2: its + and - probes, wherever the poll is
            read, k, end = values, 3 ** (probe // 2) - 1 + 2 * path, probe + 2
        else:
            if rows is None:
                rows, origin = (yield x + steps[probe : probe + budget - evals]), probe
            read, k, end = rows, probe - origin, len(steps)
        for hit, ft in enumerate(read[k : k + min(end - probe, budget - evals)], probe):
            if ft.__class__ is not float:
                raise ft
            if ft < fx:
                x, fx, improved, rows, evals = x + steps[hit], ft, True, None, evals + hit - probe + 1
                path, probe = 3 * path + hit % 2, hit + 2 - hit % 2  # the next direction's + probe
                break
        else:
            path, probe, evals = 3 * path + 2, end, min(evals + end - probe, budget)
    return x, fx, evals, improved


def _accelerate(x, x1, fx1, evals, budget, ask, carried):
    """Steps (x, x1) -> (x1, x1 + (x1 - x)) while that improves. Each request
    computes the ray's next points with that recurrence, four at first and then
    twice as many as before, as far as the budget allows; only values consumed
    up to the first that does not improve count. With cycles `carried`, the
    first request goes through `ask(rows, carried)`. Returns (point, value, evaluations)."""
    ahead, a, b = 4, x.tolist(), x1.tolist()  # the same floats as numpy's, at less cost per point
    while evals < budget:
        ray, m = [], min(ahead, budget - evals)
        while len(ray) < m and any(step := [*map(sub, b, a)]):  # a zero step ends the ray
            a, b = b, [*map(add, b, step)]
            ray.append(b)
        if not ray:
            break
        ray = np.array(ray)
        values, carried = (yield from ask(ray, carried)) if carried else (yield ray), ()
        for k, ft in enumerate(values[: len(ray)]):
            if ft.__class__ is not float:
                raise ft
            if not ft < fx1:
                return x1, fx1, evals + k + 1
            x1, fx1 = ray[k], ft
        evals, ahead = evals + len(ray), ahead * 2
    return x1, fx1, evals


class _Restart:
    """One restart: its point at the start of each of its search cycles and,
    once its search has returned, its final point x, value fx, evaluations and
    whether it converged. Its points are lists, the same floats as the search's."""

    def __init__(self):
        self.cycles, self.x, self.fx, self.evals, self.converged = [], None, None, 0, False

    def at(self, cycle: int) -> list | None:
        """The point at the start of `cycle`, or the final point if the search
        ended before it; None while neither is known."""
        return self.cycles[cycle] if cycle < len(self.cycles) else self.x


def _in_lower_box(x, scale, cycle, lower):
    """Whether x (a list) lies in the poll box, |x - y| <= scale in every coordinate,
    of a lower-index restart's point y at the start of its own `cycle` (see
    `_Restart.at`). While a point it needs is not known yet, it asks for no rows."""
    scale = scale.tolist()  # the same floats as numpy's, at less cost per test
    for restart in lower:
        while (y := restart.at(cycle)) is None:
            yield np.empty((0, len(x)))
        if all(map(le, map(abs, map(sub, x, y)), scale)):  # |a - b| <= s, coordinate by coordinate
            return True
    return False


def _pattern_search(x0: np.ndarray, cfg: SolveConfig, rng, restarts: list, index: int):
    """Pattern search with shrink: each cycle polls the coordinate directions,
    falls back to seeded random directions when those stall, then accelerates
    along the cycle's net movement. Steps halve when a full cycle improves by
    less than the tolerance; converged once they bottom out. The search stops
    at the start of a cycle whose point lies in a lower-index restart's poll
    box (`_in_lower_box`). It fills its record, `restarts[index]`.

    Requests also score predicted cycles (the first; up to `_LADDER_CAP` stalled
    ones after `_LADDER_AFTER` stalls; the one after a ray): a cycle reads them
    only if its point, shrink and fallback draw are those predicted.

    Its dimension n is x0's: the leading n of the six coordinates. A
    generator: it yields each batch of points it needs scored, (m, n), and is
    sent their values."""
    budget = cfg.max_iterations
    x = np.array(x0, dtype=float)
    n = len(x)
    init_steps, coordinate = _INIT_STEPS[:n], _signed(np.eye(n))
    top = float(init_steps.max())
    record, lower = restarts[index], restarts[:index]
    # A cycle's first request at unit scale: 26 angle-grid rows, translation probes (p at row 20 + p), fallback probes.
    grid = np.concatenate([_ANGLE_GRID[:, :n], coordinate[6:]])
    size = len(grid) + 2 * _RANDOM_POLLS
    drawn, ahead = [], []  # fallback draws (the current cycle's until a fallback poll uses it); cycles scored ahead

    def draw(k):  # eight sets at a time: one rng.normal call gives the floats of eight, in the same order
        while len(drawn) <= k:
            directions = rng.normal(size=(8, _RANDOM_POLLS, n))
            directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
            drawn.extend(np.concatenate([np.broadcast_to(grid, (8, *grid.shape)), _signed(directions)], 1))
        return drawn[k]

    def ask(own, carried):  # own rows, then the carried cycles' first requests; queues (x, shrink, offsets, values)
        values = yield np.concatenate([own, *(x + (init_steps * s) * o for x, s, o in carried)]) if carried else own
        ahead[:] = [(*key, values[m : m + size]) for key, m in zip(carried, range(len(own), len(values), size))]
        return values

    values = yield from ask(x[None], [(x, 1.0, draw(0))] if budget > 1 else [])
    if (fx := values[0]).__class__ is not float:
        raise fx
    evals, shrink, stalls, missed = 1, 1.0, 0, False
    while evals < budget:
        record.cycles.append(x.tolist())
        scale = init_steps * shrink
        if (yield from _in_lower_box(record.cycles[-1], scale, len(record.cycles) - 1, lower)):
            break
        cycle_start = fx
        offsets = drawn[0] if drawn else draw(0)
        if ahead and ahead[0][0] is x and ahead[0][1] == shrink and ahead[0][2] is offsets:
            values = ahead.pop(0)[3]
        elif stalls < _LADDER_AFTER:
            values, ahead[:] = (yield x + scale * offsets), ()
        else:  # a stall ladder: the next stalled cycles too, none past the step floor
            ladder = range(1, min(2 ** (stalls - _LADDER_AFTER), _LADDER_CAP) + 1)
            carried = [(x, shrink * 0.5**k, draw(k)) for k in ladder if shrink * 0.5 ** (k - 1) * top > _STEP_FLOOR]
            values = yield from ask(x + scale * offsets, carried)
        x1, fx1, evals, improved = yield from _poll(x, fx, scale * coordinate, evals, budget, values, 20, True)
        if not improved and evals < budget:
            fallback = scale * offsets[len(grid) :]
            x1, fx1, evals, improved = yield from _poll(x1, fx1, fallback, evals, budget, values, len(grid))
            del drawn[0]
        stalls = 0 if improved else stalls + 1
        if improved:
            ray, small = x1, cycle_start - fx1 < cfg.tolerance  # the tolerance test, should the ray fail at once
            follow = missed and (not small or shrink * top > _STEP_FLOOR)  # and the cycle after it exists
            carried = [(x1, shrink * 0.5 if small else shrink, draw(0))] if follow else []
            x1, fx1, evals = yield from _accelerate(x, x1, fx1, evals, budget, ask, carried)
            missed = x1 is ray
        x, fx = x1, fx1
        if cycle_start - fx < cfg.tolerance:
            if shrink * top <= _STEP_FLOOR:
                record.converged = True
                break
            shrink *= 0.5
    record.x, record.fx, record.evals = x.tolist(), fx, evals
