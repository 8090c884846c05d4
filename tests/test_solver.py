import json
import math
import random
import warnings

import numpy as np
import pytest

from maniplang import fixtures, pipeline, solver
from maniplang.costs import EvalContext, EvalError, evaluate
from maniplang.geometry import (
    DegenerateDirectionError,
    Point3,
    PointCloud,
    PoseSE3,
    angle_between,
    fix_axis_sign,
    principal_axis,
    rotation_xyz,
)
from maniplang.language import parse, type_check
from maniplang.scene import Scene, load_scene
from maniplang.solver import (
    NoMovingPartsError,
    SolveConfig,
    SolverError,
    initial_pose,
    objective,
    objective_terms,
    partition_moving_static,
    solve,
    transform_scene,
)

from util import CARROT_KNIFE_PROGRAM, random_rotation, single_part_scene


def typed(source):
    return type_check(parse(source))


def grid_box(center, size, n=6):
    center = np.asarray(center, dtype=float)
    size = np.asarray(size, dtype=float)
    axes = [np.linspace(-0.5, 0.5, n) * size[i] + center[i] for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid


def cube_scene():
    return Scene(
        parts={
            "cube": PointCloud(grid_box((0.3, 0.0, 0.02), (0.04, 0.04, 0.04))),
            "target": PointCloud(grid_box((0.5, 0.2, 0.005), (0.1, 0.1, 0.01))),
        },
        grasped=frozenset({"cube"}),
        gripper_position=Point3(0.3, 0.0, 0.02),
        gripper_open_fraction=0.0,
        objects={"cube": "cube", "target": "target"},
    )


class TestSolveConfig:
    @pytest.mark.parametrize("field", ["alpha", "beta", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(SolverError, match="must be finite"):
            SolveConfig(**{field: value})


class TestPartition:
    def test_nothing_grasped_all_static(self):
        scene = Scene(
            parts={"a": PointCloud([(0, 0, 0)]), "b": PointCloud([(1, 1, 1)])},
            grasped=frozenset(),
            gripper_position=Point3(0, 0, 0),
            gripper_open_fraction=1.0,
        )
        moving, static = partition_moving_static(scene)
        assert moving == frozenset()
        assert static == {"a", "b"}

    def test_knife_blade_rides_with_knife(self):
        scene = Scene(
            parts={
                "knife": PointCloud([(0, 0, 0)]),
                "knife blade": PointCloud([(0, 0, -0.1)]),
                "carrot": PointCloud([(0.2, 0, 0)]),
            },
            grasped=frozenset({"knife"}),
            gripper_position=Point3(0, 0, 0),
            gripper_open_fraction=0.0,
        )
        moving, static = partition_moving_static(scene)
        assert moving == {"knife", "knife blade"}
        assert static == {"carrot"}

    def test_pen_holder_stays_static_with_object_labels(self):
        scene = fixtures.make_scene("pen_holder")
        moving, static = partition_moving_static(scene)
        assert moving == {"pen"}
        assert static == {"pen holder"}

    def test_word_boundary_tokenization_oracle(self):
        # Independent oracle: with explicit object labels, membership is label
        # equality; without labels, token-prefix on whitespace word boundaries.
        # The shipped scenes label every part; the seeded ones mix in unlabeled
        # parts and names like "knife  blade" and "knifeblade" (a Scene
        # rejects the empty name that no word makes).
        rng = random.Random(13)
        words = ("knife", "blade", "knifeblade", "cup")
        scenes = [fixtures.make_scene(kind) for kind in ("pen_holder", "carrot_knife", "teapot_lid", "cube_target")]
        for _ in range(300):
            names = sorted({rng.choice((" ", "  ")).join(rng.choices(words, k=rng.randint(0, 3))) for _ in range(5)} - {""})
            scenes.append(Scene(
                parts={name: PointCloud([(0, 0, 0)]) for name in names},
                grasped=frozenset(name for name in names if rng.random() < 0.3),
                gripper_position=Point3(0, 0, 0),
                gripper_open_fraction=0.0,
                objects={name: rng.choice("ab") for name in names if rng.random() < 0.5},
            ))
        for scene in scenes:
            expected = set()
            for name in scene.parts:
                for g in scene.grasped:
                    po, go = scene.objects.get(name), scene.objects.get(g)
                    if po is not None and go is not None:
                        belongs = po == go
                    else:
                        belongs = name.split()[: len(g.split())] == g.split()
                    if name == g or belongs:
                        expected.add(name)
                        break
            moving, _ = partition_moving_static(scene)
            assert moving == expected


class TestObjective:
    def test_identity_pose_equals_plain_eval(self):
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'))")
        pose = initial_pose(scene)
        obj, cost, reg_t, reg_r = objective_terms(expr, scene, pose, SolveConfig())
        assert reg_t == 0.0 and reg_r == 0.0
        assert obj == cost == evaluate(expr, EvalContext(scene))

    def test_zero_cost_landscape_minimized_at_initial_pose(self):
        scene = single_part_scene("x", [(0, 0, 0)], open_fraction=1.0)
        expr = typed("gripper_open_cost()")
        cfg = SolveConfig()
        base = objective(expr, scene, initial_pose(scene), cfg)
        assert base == 0.0
        shifted = PoseSE3.identity(Point3(0.05, 0, 0))
        assert objective(expr, scene, shifted, cfg) > 0.0

    def test_one_dimensional_analytic_tradeoff(self):
        # min_x |d - x| + alpha*x with d = 0.1, alpha = 0.1: since the cost
        # slope (1) beats alpha, the optimum moves the full distance.
        scene = Scene(
            parts={"cube": PointCloud(grid_box((0, 0, 0), (0.02, 0.02, 0.02)))},
            grasped=frozenset({"cube"}),
            gripper_position=Point3(0, 0, 0),
            gripper_open_fraction=0.0,
        )
        expr = typed("move_cost(get_centroid('cube'), [0, 0, 0.1])")
        cfg = SolveConfig(alpha=0.1, beta=0.05)
        result = solve(expr, scene, cfg)
        assert result.cost_term < 1e-6
        assert abs(result.reg_translation - 0.1) < 1e-6

    def test_history_snapshot_feeds_offset_moves(self):
        scene = cube_scene()
        expr = typed("move_cost_with_offset('cube', offset=[0, 0, 0.05])")
        pose = PoseSE3.identity(Point3(0.3, 0.0, 0.07))
        # The pre-move snapshot is appended during objective evaluation.
        assert objective(expr, scene, pose, SolveConfig(alpha=0.0, beta=0.0)) < 1e-12


    def test_moving_axis_is_the_carried_start_axis(self):
        # The grid cube's covariance has three tied eigenvalues, so PCA picks
        # its axis from rounding noise and a rerun on the rotated points can
        # land anywhere. The objective carries the start axis with the part.
        scene = cube_scene()
        start = principal_axis(scene.parts["cube"]).as_array()
        rng = np.random.default_rng(0)
        rerun_turns = []
        for _ in range(5):
            pose = PoseSE3(random_rotation(rng), scene.gripper_position)
            carried = fix_axis_sign(pose.rotation @ start)
            expr = typed("rotate_cost(get_axis('cube'), 0, [{!r}, {!r}, {!r}])".format(*carried.tolist()))
            assert objective_terms(expr, scene, pose, SolveConfig())[1] < 1e-12
            rerun = principal_axis(transform_scene(scene, pose).parts["cube"]).as_array()
            rerun_turns.append(angle_between(rerun, carried))
        # The two rules do differ on this cloud, so the check above decides between them.
        assert max(rerun_turns) > 0.1


class TestSolve:
    def test_cube_move_reaches_analytic_optimum(self):
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])")
        result = solve(expr, scene, SolveConfig())
        assert result.cost_term < 1e-3
        # analytic optimum: translate by (target + offset - cube centroid)
        expected = (
            scene.parts["target"].coords.mean(axis=0)
            + np.array([0, 0, 0.1])
            - scene.parts["cube"].coords.mean(axis=0)
        )
        got = result.pose.translation.as_array() - scene.gripper_position.as_array()
        assert np.linalg.norm(got - expected) < 1e-3

    def test_zero_cost_returns_initial_pose(self):
        scene = single_part_scene("x", [(0, 0, 0)], gripper=(0.4, 0.1, 0.3), open_fraction=1.0)
        result = solve(typed("gripper_open_cost()"), scene, SolveConfig())
        assert result.objective == 0.0
        assert np.array_equal(result.pose.rotation, np.eye(3))
        assert result.pose.translation == Point3(0.4, 0.1, 0.3)

    def test_monotone_improvement(self):
        scene = fixtures.make_scene("carrot_knife")
        expr = typed(CARROT_KNIFE_PROGRAM)
        cfg = SolveConfig(beta=0.01, restarts=2, max_iterations=400)
        start_objective = objective(expr, scene, initial_pose(scene), cfg)
        result = solve(expr, scene, cfg)
        assert result.objective <= start_objective

    def test_decomposition_identity(self):
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'))")
        cfg = SolveConfig()
        result = solve(expr, scene, cfg)
        recomputed = objective_terms(expr, scene, result.pose, cfg)
        assert abs(result.objective - recomputed[0]) < 1e-9
        assert abs(
            result.objective
            - (result.cost_term + cfg.alpha * result.reg_translation + cfg.beta * result.reg_rotation)
        ) < 1e-9

    def test_determinism_bit_for_bit(self):
        scene = fixtures.make_scene("pen_holder")
        expr = typed("parallel_cost(get_axis('pen'), get_axis('pen holder'))")
        cfg = SolveConfig(beta=0.01, restarts=4, max_iterations=800, seed=5)
        first = solve(expr, scene, cfg)
        second = solve(expr, scene, cfg)
        assert first.objective == second.objective
        assert first.cost_term == second.cost_term
        assert np.array_equal(first.pose.rotation, second.pose.rotation)
        assert first.pose.translation == second.pose.translation
        assert first.iterations == second.iterations

    def test_regularizer_pull_keeps_initial_pose(self):
        scene = single_part_scene("x", [(1, 1, 1)], gripper=(0.2, 0.2, 0.2), open_fraction=1.0)
        for seed in (0, 1):
            result = solve(typed("gripper_open_cost()"), scene, SolveConfig(seed=seed))
            drift = np.linalg.norm(
                result.pose.translation.as_array() - np.array([0.2, 0.2, 0.2])
            )
            assert drift < 1e-6

    def test_negative_seed_is_usable(self):
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'))")
        result = solve(expr, scene, SolveConfig(seed=-7, restarts=2, max_iterations=300))
        again = solve(expr, scene, SolveConfig(seed=-7, restarts=2, max_iterations=300))
        assert result.objective == again.objective

    def test_no_moving_parts_error(self):
        scene = Scene(
            parts={"pen": PointCloud(grid_box((0, 0, 0), (0.01, 0.01, 0.1))),
                   "pen holder": PointCloud(grid_box((0.2, 0, 0), (0.02, 0.02, 0.1)))},
            grasped=frozenset(),
            gripper_position=Point3(0, 0, 0.3),
            gripper_open_fraction=1.0,
            objects={"pen": "pen", "pen holder": "pen holder"},
        )
        with pytest.raises(NoMovingPartsError):
            solve(typed("parallel_cost(get_axis('pen'), get_axis('pen holder'))"), scene)

    def test_no_moving_parts_error_names_what_moves(self):
        # The cube is grasped and moves, but the expression asks the static target to.
        scene = fixtures.make_scene("cube_target")
        with pytest.raises(NoMovingPartsError, match=r"constrains \['target'\] but only \['cube'\] can move"):
            solve(typed("move_cost(get_centroid('target'), get_centroid('cube'))"), scene)

    def test_gripper_only_program_solves_without_grasp(self):
        scene = Scene(
            parts={"button": PointCloud(grid_box((0.3, 0.1, 0.1), (0.02, 0.02, 0.01)))},
            grasped=frozenset(),
            gripper_position=Point3(0.1, 0.1, 0.3),
            gripper_open_fraction=0.0,
        )
        expr = typed("gripper_close_first_cost() + move_cost('gripper', 'button')")
        result = solve(expr, scene, SolveConfig())
        assert result.cost_term < 1e-3

    def test_gradient_sanity_on_move_fixture(self):
        # Central finite differences along each coordinate must agree in sign
        # with the first accepted pattern move at the start point.
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'))")
        cfg = SolveConfig()
        h = 1e-6
        steps = [0.25] * 3 + [0.1] * 3

        def f(x):
            rel_pose = PoseSE3(
                np.eye(3) if not any(x[:3]) else _rot(x), Point3.from_array(
                    scene.gripper_position.as_array() + np.asarray(x[3:])
                )
            )
            return objective(expr, scene, rel_pose, cfg)

        def _rot(x):
            from maniplang.geometry import rotation_xyz

            return rotation_xyz(x[0], x[1], x[2])

        base = f([0.0] * 6)
        accepted_any = False
        for i in range(6):
            plus = [0.0] * 6
            minus = [0.0] * 6
            plus[i] += h
            minus[i] -= h
            fd = (f(plus) - f(minus)) / (2 * h)
            # Replicate the first pattern probe on this coordinate: +step,
            # then -step, accepting the first strict improvement.
            accepted = 0.0
            for sign in (1.0, -1.0):
                trial = [0.0] * 6
                trial[i] = sign * steps[i]
                if f(trial) < base:
                    accepted = sign
                    break
            if accepted:
                accepted_any = True
                assert abs(fd) > 1e-9, "accepted a move where the landscape is flat"
                assert accepted == -math.copysign(1.0, fd)
        assert accepted_any, "expected at least one descent coordinate on the move fixture"

    def test_result_serializes_to_json(self):
        scene = cube_scene()
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'))")
        result = solve(expr, scene, SolveConfig(restarts=2, max_iterations=300))
        doc = json.loads(result.dumps())
        assert len(doc["pose"]["rotation"]) == 9
        assert len(doc["pose"]["translation"]) == 3
        for key in ("objective", "cost_term", "reg_translation", "reg_rotation",
                    "iterations", "converged"):
            assert key in doc


class TestTransformScene:
    def test_moves_only_attached_parts(self):
        scene = cube_scene()
        pose = PoseSE3.identity(Point3(0.3, 0.0, 0.12))
        moved = transform_scene(scene, pose)
        assert np.allclose(
            moved.parts["cube"].coords, scene.parts["cube"].coords + [0, 0, 0.1]
        )
        assert np.array_equal(moved.parts["target"].coords, scene.parts["target"].coords)
        assert moved.gripper_position == Point3(0.3, 0.0, 0.12)

    def test_appends_history_snapshot(self):
        scene = cube_scene()
        moved = transform_scene(scene, PoseSE3.identity(Point3(0.3, 0.0, 0.12)))
        assert len(moved.history) == len(scene.history) + 1
        assert moved.history[-1].gripper_position == scene.gripper_position


# (total_evaluations, iterations, restart_index) of each mock task's solve
# stage: batching may only change how many objective calls score them. Every
# mock program puts the translation in closed form, so each search is over the
# three Euler angles.
MOCK_SEARCHES = {
    "move the cube above the target": ("cube_target", (799, 691, 0)),
    "lift the cube and release it": ("cube_target", (791, 691, 0)),
    "put the pen into the penholder": ("pen_holder", (2903, 584, 0)),
    "cut the carrot with the knife": ("carrot_knife", (6038, 1289, 0)),
}
# Lockstep rounds (`_objective_rows` calls) of each mock task's solve stage.
MOCK_ROUNDS = {
    "move the cube above the target": 24,
    "lift the cube and release it": 24,
    "put the pen into the penholder": 149,
    "cut the carrot with the knife": 242,
}


def degenerate_probe_scene(c_at):
    """'a' (grasped, long along y, centroid at the origin) and a one-point part
    'c' at `c_at`; the gripper sits 5 cm above 'a'. DIRECTION_PROGRAM turns
    'a' about x first (+rx, the first probe of the first poll, improves) and
    has no direction wherever the moved centroid of 'a' lands on 'c'."""
    return Scene(
        parts={
            "a": PointCloud(grid_box((0, 0, 0), (0.02, 0.2, 0.02))),
            "c": PointCloud([c_at]),
        },
        grasped=frozenset({"a"}),
        gripper_position=Point3(0, 0, 0.05),
        gripper_open_fraction=0.0,
    )


DIRECTION_PROGRAM = "parallel_cost(get_axis('a'), [0, 0, 1]) + perpendicular_cost(direction_of('a', 'c'), [1, 0, 0])"


RAY_PROGRAM = (
    "parallel_cost(get_axis('a'), [0, 0, 1])"
    " + (parallel_cost(direction_of('a', 'c'), [1, 0, 0]) + perpendicular_cost(direction_of('a', 'c'), [1, 0, 0]))"
)


def ray_requests(monkeypatch, expr, cfg):
    """The points of the first acceleration ray of a solve on the
    degenerate_probe_scene with 'c' far away, each with the request it came
    in, and how many of them the search consumed."""
    rays = []
    accelerate = solver._accelerate

    def recorded(x, x1, fx1, evals, budget):
        requests = []
        search = accelerate(x, x1, fx1, evals, budget)
        try:
            request = next(search)
            while True:
                requests.append(request)
                request = search.send((yield request))
        except StopIteration as done:
            rays.append((requests, done.value[2] - evals))
            return done.value

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_accelerate", recorded)
        solve(expr, degenerate_probe_scene((5.0, 5.0, 5.0)), cfg)
    requests, consumed = rays[0]
    return [(point, request) for request in requests for point in request], consumed


def watch_direction_failures(monkeypatch):
    """The DegenerateDirectionErrors that `solver.evaluate` raises from now on."""
    failures = []
    original = solver.evaluate

    def watched(expr, ctx):
        try:
            return original(expr, ctx)
        except DegenerateDirectionError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(solver, "evaluate", watched)
    return failures


def first_probe_of_a():
    """Where the first probe of restart 0 (+rx) moves the centroid of 'a' in
    degenerate_probe_scene."""
    t0 = np.array([0.0, 0.0, 0.05])
    return rotation_xyz(0.25, 0.0, 0.0) @ (np.zeros(3) - t0) + t0


def centroid_of_a_at(x):
    """Where search point x moves the centroid of 'a' in degenerate_probe_scene."""
    ctx = solver._PosedContext(degenerate_probe_scene((5.0, 5.0, 5.0)))
    ctx.place(rotation_xyz(x[0], x[1], x[2])[None], (ctx.t0 + x[3:])[None])
    return tuple(ctx.resolve_point("a")[0].tolist())


def first_fallback_probe():
    """Restart 0's first random-fallback probe from the start (seed 0): +
    along the first direction it draws."""
    directions = np.random.default_rng((0, 0)).normal(size=(solver._RANDOM_POLLS, 6))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return solver._INIT_STEPS * directions[0]


# Rows of restart 0's first cycle that its search never consumes, by what asks
# for them: the coordinate poll's last probe from the start (-tz), an
# outcome-tree branch never taken (+ry after -rx improved), and the random
# fallback drawn ahead (rng), which the improving coordinate poll leaves unused.
SPECULATIVE_ROWS = {
    "tz": lambda: np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.1]),
    "tree": lambda: np.array([-0.25, 0.25, 0.0, 0.0, 0.0, 0.0]),
    "rng": first_fallback_probe,
}


class TestLockstepSearch:
    @pytest.mark.parametrize("instruction", sorted(MOCK_SEARCHES))
    def test_mock_solves_take_the_recorded_search(self, instruction, monkeypatch):
        kind, recorded = MOCK_SEARCHES[instruction]
        rounds = []
        objective_rows = solver._objective_rows
        monkeypatch.setattr(solver, "_objective_rows", lambda *args: rounds.append(1) or objective_rows(*args))
        client = pipeline.MockClient(fixtures.load_mock_translations())
        trace = pipeline.run_task(instruction, load_scene(fixtures.shipped_scene_path(kind)), client)
        (result,) = [stage.solve for stage in trace.stages if stage.solve is not None]
        assert (result.total_evaluations, result.iterations, result.restart_index) == recorded
        assert len(rounds) == MOCK_ROUNDS[instruction]

    def test_restarts_run_in_fixed_groups(self, monkeypatch):
        groups = []
        lockstep = solver._lockstep

        def recorded(searches, score):
            groups.append(len(searches))
            return lockstep(searches, score)

        monkeypatch.setattr(solver, "_lockstep", recorded)
        scene = load_scene(fixtures.shipped_scene_path("cube_target"))
        expr = typed("move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])")
        result = solve(expr, scene, SolveConfig(restarts=20))
        assert groups == [8, 8, 4]
        assert (result.total_evaluations, result.iterations, result.restart_index) == (976, 691, 0)
        assert result.objective == 0.02938793222149083

    @pytest.mark.parametrize("row", sorted(SPECULATIVE_ROWS))
    def test_speculative_degenerate_probe_does_not_end_the_solve(self, row, monkeypatch):
        # The row puts 'a' on 'c'. It is scored in the first cycle's request,
        # but +rx improves first, so a one-probe-at-a-time search never
        # evaluates it. The second term of RAY_PROGRAM is exactly 1 wherever
        # 'c' is, so the solve is the one with 'c' far away.
        expr, cfg = typed(RAY_PROGRAM), SolveConfig(restarts=1, max_iterations=300)
        reference = solve(expr, degenerate_probe_scene((5.0, 5.0, 5.0)), cfg)
        failures = watch_direction_failures(monkeypatch)
        result = solve(expr, degenerate_probe_scene(centroid_of_a_at(SPECULATIVE_ROWS[row]())), cfg)
        assert failures, "the speculative probe was never scored"
        assert result.dumps() == reference.dumps()

    def test_non_finite_row_holds_its_error(self):
        # Turned 45 degrees the cube is taller, and its target angle overflows.
        scene = load_scene(fixtures.shipped_scene_path("cube_target"))
        expr = typed("rotate_cost(get_axis('cube'), get_height('cube') * 1e308 * 40, [0, 0, 1])")
        ctx, cfg = solver._PosedContext(scene), SolveConfig()
        n, poses = solver._search_space(expr, ctx, cfg)
        assert n == 3
        xs = np.array([[0.0, 0.0, 0.0], [math.pi / 4, 0.0, 0.0]])
        start, turned = solver._objective_rows(expr, ctx, xs, cfg, poses)
        assert math.isfinite(start)
        assert isinstance(turned, EvalError)

    def test_failing_rows_are_found_by_halving(self, monkeypatch):
        # A round with a failing row is scored again in halves, down to the
        # rows that fail, not one row at a time.
        calls = []
        evaluate = solver.evaluate
        monkeypatch.setattr(solver, "evaluate", lambda expr, ctx: calls.append(expr) or evaluate(expr, ctx))
        scene = degenerate_probe_scene((0.0, 0.0, -0.1))
        solve(typed(DIRECTION_PROGRAM), scene, SolveConfig(restarts=8, max_iterations=300))
        assert len(calls) == 76

    def test_halving_gives_each_row_its_value_alone(self):
        scene = load_scene(fixtures.shipped_scene_path("cube_target"))
        expr = typed("rotate_cost(get_axis('cube'), get_height('cube') * 1e308 * 40, [0, 0, 1])")
        ctx, cfg = solver._PosedContext(scene), SolveConfig()
        n, poses = solver._search_space(expr, ctx, cfg)
        assert n == 3
        # Only the third row turns the cube off the vertical and makes it
        # taller, so only it fails; turns about z keep its height.
        xs = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1], [math.pi / 4, 0.0, 0.0]] + [[0.0, 0.0, z] for z in (-0.2, 0.5, 0.3)]
        )
        rows = solver._objective_rows(expr, ctx, xs, cfg, poses)
        alone = [solver._objective_rows(expr, ctx, xs[k : k + 1], cfg, poses)[0] for k in range(len(xs))]
        assert [type(row) for row in rows] == [type(row) for row in alone] == [float] * 2 + [EvalError] + [float] * 3
        assert [row for row in rows if isinstance(row, float)] == [row for row in alone if isinstance(row, float)]

    @pytest.mark.parametrize("target", ["[0, 0, 1e308] + [0, 0, 1e308]", "[0, 0, 1e200]"])
    def test_overflowing_residual_holds_a_typed_error_in_each_row(self, target):
        # The first residual overflows; the second is finite, but the square
        # of the closed-form translation's length is not.
        scene = load_scene(fixtures.shipped_scene_path("cube_target"))
        expr = typed(f"move_cost(get_centroid('cube'), {target})")
        ctx = solver._PosedContext(scene)
        cfg = SolveConfig()
        n, poses = solver._search_space(expr, ctx, cfg)
        assert n == 3
        xs = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [math.pi / 4, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = solver._objective_rows(expr, ctx, xs, cfg, poses)
            assert all(isinstance(row, EvalError) for row in rows)
            with pytest.raises(EvalError):
                solve(expr, scene, SolveConfig(restarts=2, max_iterations=50))

    def test_unconsumed_ray_point_does_not_end_the_solve(self, monkeypatch):
        # The second term of RAY_PROGRAM is exactly 1 wherever 'c' is, so every
        # placement of 'c' gives one search, unless a point it consumes puts
        # the moved centroid of 'a' on 'c'.
        expr = typed(RAY_PROGRAM)
        cfg = SolveConfig(restarts=1, max_iterations=300)
        reference = solve(expr, degenerate_probe_scene((5.0, 5.0, 5.0)), cfg)
        requests, consumed = ray_requests(monkeypatch, expr, cfg)
        lookahead = next(k for k, (_, request) in enumerate(requests) if len(request) > 1)
        assert lookahead < consumed < len(requests), "the first ray's lookahead is neither consumed nor left"
        failures = watch_direction_failures(monkeypatch)
        left_over = solve(expr, degenerate_probe_scene(centroid_of_a_at(requests[consumed][0])), cfg)
        assert failures, "the unconsumed ray point was never scored"
        assert left_over.dumps() == reference.dumps()
        with pytest.raises(DegenerateDirectionError):
            solve(expr, degenerate_probe_scene(centroid_of_a_at(requests[consumed - 1][0])), cfg)

    def test_consumed_degenerate_probe_raises(self):
        # Here the first probe itself (+rx) puts 'a' on 'c'.
        with pytest.raises(DegenerateDirectionError):
            solve(typed(DIRECTION_PROGRAM), degenerate_probe_scene(first_probe_of_a()), SolveConfig(restarts=1))

    @pytest.mark.parametrize("restarts", [2, 8])
    def test_failing_lower_restart_stops_the_restarts_above_it(self, restarts, monkeypatch):
        # Restart 0 consumes its first probe, which puts 'a' on 'c', so it never
        # records its second cycle's point. The restarts above it, which would
        # wait for that point, stop with it: no round is empty, and restart 0's
        # error is raised.
        objective_rows = solver._objective_rows

        def scored(expr, ctx, xs, *rest):
            assert len(xs), "a round asked for no rows"
            return objective_rows(expr, ctx, xs, *rest)

        monkeypatch.setattr(solver, "_objective_rows", scored)
        with pytest.raises(DegenerateDirectionError):
            solve(typed(DIRECTION_PROGRAM), degenerate_probe_scene(first_probe_of_a()), SolveConfig(restarts=restarts))

    def test_cube_lift_turns_the_cube_once_per_round(self, monkeypatch):
        # The closed-form translation reads the turned cube's height, and so
        # does the objective at the same rotations: the posed context keeps it.
        turned, per_round = [], []
        rotated_extent, objective_rows = solver.rotated_extent, solver._objective_rows
        monkeypatch.setattr(solver, "rotated_extent", lambda *args: turned.append(1) or rotated_extent(*args))

        def counted(*args):
            before = len(turned)
            values = objective_rows(*args)
            per_round.append(len(turned) - before)
            return values

        monkeypatch.setattr(solver, "_objective_rows", counted)
        client = pipeline.MockClient(fixtures.load_mock_translations())
        scene = load_scene(fixtures.shipped_scene_path("cube_target"))
        pipeline.run_task("lift the cube and release it", scene, client)
        assert per_round == [1] * MOCK_ROUNDS["lift the cube and release it"]
