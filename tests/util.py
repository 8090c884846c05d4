"""Shared test helpers: independent oracles the production code never sees."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from maniplang import solver
from maniplang.costs import EmptyHistoryError, EvalError
from maniplang.errors import ManiplangError, MissingPartError
from maniplang.geometry import DegenerateAxisError, Point3, PointCloud, angle_between, dot, norm, unit_direction
from maniplang.language.ast import BinOp, Call, Literal, Neg, Triple
from maniplang.scene import GRIPPER_NAME, Scene


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via quaternion normalization (independent of
    the package's Euler code)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def pca_axis_oracle(coords: np.ndarray) -> np.ndarray:
    """Dominant axis via SVD of the centered data matrix."""
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[0]


def lev_table_oracle(a: str, b: str) -> int:
    """Textbook full-table edit distance, written independently of the
    production bit-parallel kernel."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def lev_complete_search(a: str, b: str) -> int:
    """Minimum over all edit scripts by complete recursion on suffixes."""

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            best(i + 1, j) + 1,  # delete a[i]
            best(i, j + 1) + 1,  # insert b[j]
            best(i + 1, j + 1) + (a[i] != b[j]),
        )

    return best(0, 0)


def lev_enumerate(a: str, b: str) -> int:
    """True exhaustive script enumeration with a depth budget (short strings
    only); anchors the recursive oracle itself."""

    def achievable(x: str, budget: int) -> bool:
        if x == b:
            return True
        if budget == 0 or abs(len(x) - len(b)) > budget:
            return False
        alphabet = set(b) | set(x) | {"a"}
        for i in range(len(x) + 1):
            for ch in alphabet:
                if achievable(x[:i] + ch + x[i:], budget - 1):  # insert
                    return True
        for i in range(len(x)):
            if achievable(x[:i] + x[i + 1 :], budget - 1):  # delete
                return True
            for ch in alphabet:
                if ch != x[i] and achievable(x[:i] + ch + x[i + 1 :], budget - 1):
                    return True
        return False

    for budget in range(max(len(a), len(b)) + 1):
        if achievable(a, budget):
            return budget
    raise AssertionError("unreachable: any string converts within max length edits")


def unwritable_path(tmp_path):
    """A path under a regular file: no directory can be created there, even as root."""
    (tmp_path / "f.txt").write_text("", encoding="utf-8")
    return tmp_path / "f.txt" / "x"


def single_part_scene(
    name: str,
    coords,
    gripper=(0.0, 0.0, 0.0),
    grasped: bool = False,
    open_fraction: float = 1.0,
) -> Scene:
    return Scene(
        parts={name: PointCloud(coords)},
        grasped=frozenset({name} if grasped else set()),
        gripper_position=Point3(*gripper),
        gripper_open_fraction=open_fraction,
    )


CARROT_KNIFE_PROGRAM = (
    "perpendicular_cost(get_axis('carrot'), get_axis('knife blade')) + "
    "move_cost(get_centroid('knife'), get_centroid('knife blade'), offset=[0, 0, 0.1])"
)

PEN_PROGRAM = 'parallel_cost(get_axis("pen"), get_axis("pen holder"))'


# -- the plain tree walk that costs' plans replaced -------------------------------


def evaluate_oracle(expr, ctx):
    """costs.evaluate as one recursive walk per call: every node computed on
    every call, in post-order; reads go through the context's summaries."""
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


def _eval(node, ctx):
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
            right = np.expand_dims(right, -1)
        return left * right
    if isinstance(expr, Call):
        word = _ORACLE_WORDS.get(node.word)
        if word is None:
            raise EvalError(f"word {node.word!r} is not evaluable (void actions run in the pipeline)")
        return word(ctx, *_values(node, ctx))
    raise EvalError(f"cannot evaluate node {expr!r}")


def _values(node, ctx) -> list:
    return [_eval(child, ctx) for child in node.children]


def _centroid_last(ctx, part, word):
    if not ctx.scene.history:
        raise EmptyHistoryError(f"{word}({part!r}) needs at least one recorded snapshot")
    snap = ctx.scene.history[-1]
    if part == GRIPPER_NAME:
        return snap.gripper_position.as_array()
    if part not in snap.part_centroids:
        raise MissingPartError(part)
    return snap.part_centroids[part].as_array()


def _unit(vec):
    length = norm(vec)
    if (length <= 1e-12).any():
        raise DegenerateAxisError("zero-length vector in alignment cost")
    return vec / length[..., None]


def _move_residual(ctx, source, target, offset=None):
    return source - (target if offset is None else target + offset)


def _offset_residual(ctx, part, offset):
    goal = _centroid_last(ctx, part, "move_cost_with_offset")
    return ctx.resolve_point(part) - (goal + offset)


def _perpendicular_cost(ctx, first, second):
    return np.minimum(np.abs(dot(_unit(first), _unit(second))), 1.0)


def _orbit_cost(ctx, center_part, radius, moving_part):
    center, axis = ctx.resolve_point(center_part), ctx.part_axis(center_part)
    rel = ctx.resolve_point(moving_part) - center
    radial = rel - dot(rel, axis)[..., None] * axis
    return np.abs(norm(radial) - radius)


def _upright_cost(ctx, up_part, down_part):
    up = ctx.resolve_point(up_part)
    down = ctx.resolve_point(down_part)
    return np.minimum(np.maximum(1.0 - unit_direction(down, up)[..., 2], 0.0), 2.0)


_ORACLE_WORDS = {
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
    "parallel_cost": lambda ctx, first, second: 1.0 - _perpendicular_cost(ctx, first, second),
    "perpendicular_cost": _perpendicular_cost,
    "rotate_cost": lambda ctx, axis, angle, reference: np.abs(angle_between(axis, reference) - angle) / math.pi,
    "orbit_cost": _orbit_cost,
    "upright_cost": _upright_cost,
    "gripper_open_cost": lambda ctx: 1.0 - ctx.scene.gripper_open_fraction,
    "gripper_close_first_cost": lambda ctx: ctx.scene.gripper_open_fraction,
}


# -- the bytes-keyed poll that the solver's index reads replaced -------------------


def _keys(rows: np.ndarray) -> list:
    """Each row's bytes: points built alike are keyed alike."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _consume(value) -> float:
    """A scored row's value; a failed row raises its error."""
    if isinstance(value, ManiplangError):
        raise value
    return value


def poll_oracle(x, fx, steps, evals, budget, probes, values):
    """solver._poll as a lookup by bytes: a probe is read from the rows
    `probes` of the cycle's first request, which scored `values`, where its
    bytes are among them; at the first that is not, one request asks for every
    probe still ahead from the current point (as many as the budget allows),
    and its rows join the lookup. Returns (point, value, evaluations,
    improved)."""
    scored = dict(zip(_keys(probes), values))
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


# -- a solve's search alone, by replay ---------------------------------------------


def replay_solve(expr, scene, cfg=None):
    """Solve live, recording each round's `solver._objective_rows` result; then
    `replay()` solves again with those results served back in order, so no
    round scores the objective and what is left is the search's own work.
    Returns (live result, rounds recorded, replay); `replay()` returns
    (result, rounds served). The search is deterministic in the values it is
    sent, so a replay takes the live solve's steps and gives its result."""
    scored, recorded, depth = solver._objective_rows, [], 0

    def record(*args):  # the halving of a failed round calls back in: keep the outermost call only
        nonlocal depth
        depth += 1
        try:
            values = scored(*args)
        finally:
            depth -= 1
        if not depth:
            recorded.append(values)
        return values

    def served_solve(serve):
        solver._objective_rows = serve
        try:
            return solver.solve(expr, scene, cfg)
        finally:
            solver._objective_rows = scored

    live = served_solve(record)

    def replay():
        served = iter(recorded)
        result = served_solve(lambda *args: next(served))
        return result, len(recorded) - sum(1 for _ in served)

    return live, len(recorded), replay
