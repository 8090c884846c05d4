import json
import math

import numpy as np
import pytest

from maniplang import fixtures, pipeline, solver
from maniplang.costs import EvalContext, evaluate
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
        for kind in ("pen_holder", "carrot_knife", "teapot_lid", "cube_target"):
            scene = fixtures.make_scene(kind)
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
# stage, recorded from the one-probe-at-a-time search before polls were
# batched: batching may only change how many objective calls score them.
MOCK_SEARCHES = {
    "move the cube above the target": ("cube_target", (15032, 1880, 4)),
    "lift the cube and release it": ("cube_target", (14480, 1666, 0)),
    "put the pen into the penholder": ("pen_holder", (14612, 1777, 2)),
    "cut the carrot with the knife": ("carrot_knife", (15505, 1899, 0)),
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


class TestLockstepSearch:
    @pytest.mark.parametrize("instruction", sorted(MOCK_SEARCHES))
    def test_mock_solves_take_the_recorded_search(self, instruction):
        kind, recorded = MOCK_SEARCHES[instruction]
        client = pipeline.MockClient(fixtures.load_mock_translations())
        trace = pipeline.run_task(instruction, load_scene(fixtures.shipped_scene_path(kind)), client)
        (result,) = [stage.solve for stage in trace.stages if stage.solve is not None]
        assert (result.total_evaluations, result.iterations, result.restart_index) == recorded

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
        assert (result.total_evaluations, result.iterations, result.restart_index) == (36545, 1780, 9)
        assert result.objective == 0.029387938484608224

    def test_speculative_degenerate_probe_does_not_end_the_solve(self, monkeypatch):
        # The first poll's last probe (-tz from the start) puts 'a' on 'c'. It
        # is scored with the rest of that poll, but +rx improves first, so a
        # one-probe-at-a-time search never evaluates it.
        failures = []
        original = solver.evaluate

        def watched(expr, ctx):
            try:
                return original(expr, ctx)
            except DegenerateDirectionError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(solver, "evaluate", watched)
        scene = degenerate_probe_scene((0.0, 0.0, -0.1))
        result = solve(typed(DIRECTION_PROGRAM), scene, SolveConfig(restarts=1, max_iterations=300))
        assert failures, "the speculative probe was never scored"
        assert result.cost_term < 0.1

    def test_consumed_degenerate_probe_raises(self):
        # Here the first probe itself (+rx) puts 'a' on 'c'.
        t0 = np.array([0.0, 0.0, 0.05])
        c_at = rotation_xyz(0.25, 0.0, 0.0) @ (np.zeros(3) - t0) + t0
        with pytest.raises(DegenerateDirectionError):
            solve(typed(DIRECTION_PROGRAM), degenerate_probe_scene(c_at), SolveConfig(restarts=1))
