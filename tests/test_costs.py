import math
import warnings
from collections import Counter

import numpy as np
import pytest

from maniplang.costs import (
    EmptyHistoryError,
    EvalContext,
    EvalError,
    MissingPartError,
    evaluate,
    motion_subjects,
)
from maniplang.geometry import DegenerateAxisError, DegenerateDirectionError, Point3, PointCloud
from maniplang.language import default_vocabulary, parse, type_check, validate_program
from maniplang.scene import Scene, SceneSnapshot
from maniplang import costs, fixtures

from util import CARROT_KNIFE_PROGRAM, random_rotation, single_part_scene


def typed(source: str):
    return type_check(parse(source))


def ev(source: str, scene: Scene, **kwargs) -> float:
    return evaluate(typed(source), EvalContext(scene, **kwargs))


def line_cloud(direction, n=50, scale=1.0, center=(0, 0, 0)):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    ts = np.linspace(-scale / 2, scale / 2, n)
    return np.outer(ts, direction) + np.asarray(center, dtype=float)


def two_part_scene(a_name, a_coords, b_name, b_coords, gripper=(0, 0, 0), open_fraction=1.0):
    return Scene(
        parts={a_name: PointCloud(a_coords), b_name: PointCloud(b_coords)},
        grasped=frozenset(),
        gripper_position=Point3(*gripper),
        gripper_open_fraction=open_fraction,
    )


class TestMoveCost:
    def test_distance_to_explicit_target(self):
        scene = single_part_scene("cube", [(0, 0, 0)])
        value = ev("move_cost(get_centroid('cube'), [0, 0, 0.1])", scene)
        assert abs(value - 0.1) < 1e-12

    def test_offset_form_vanishes_when_satisfied(self):
        scene = two_part_scene("cup", [(0, 0, 0.1)], "saucer", [(0, 0, 0)])
        for source in (
            "move_cost(get_centroid('cup'), get_centroid('saucer'), offset=[0, 0, 0.1])",
            "move_cost(get_centroid('cup'), get_centroid('saucer') - [0, 0, -0.1])",
        ):
            assert ev(source, scene) < 1e-12, source

    def test_three_four_five_triangle(self):
        scene = single_part_scene("cube", [(1, 1, 0)])
        value = ev("move_cost(get_centroid('cube'), [4, 5, 0])", scene)
        assert abs(value - 5.0) < 1e-12

    def test_part_already_at_target_is_zero(self):
        scene = two_part_scene("a", [(0.2, 0.3, 0.4)], "b", [(0.2, 0.3, 0.4)])
        assert ev("move_cost(get_centroid('a'), get_centroid('b'))", scene) == 0.0

    def test_offset_move_on_fresh_scene_errors(self):
        scene = single_part_scene("cube", [(0, 0, 0)])
        with pytest.raises(EmptyHistoryError):
            ev("move_cost_with_offset('cube', offset=[0, 0, 0.1])", scene)


class TestAlignmentCosts:
    def test_antiparallel_counts_as_aligned(self):
        scene = two_part_scene("a", line_cloud([0, 0, 1]), "b", line_cloud([0, 0, -1]))
        assert ev("parallel_cost(get_axis('a'), get_axis('b'))", scene) < 1e-12

    def test_orthogonal_perpendicular_cost_zero(self):
        scene = two_part_scene("a", line_cloud([1, 0, 0]), "b", line_cloud([0, 1, 0]))
        assert ev("perpendicular_cost(get_axis('a'), get_axis('b'))", scene) < 1e-12

    def test_dot_product_oracle_at_45_degrees(self):
        scene = two_part_scene("a", line_cloud([1, 0, 0]), "b", line_cloud([1, 1, 0]))
        value = ev("parallel_cost(get_axis('a'), get_axis('b'))", scene)
        assert abs(value - (1 - math.sqrt(0.5))) < 1e-9

    def test_parallel_plus_perpendicular_is_one(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            scene = two_part_scene("a", line_cloud(a), "b", line_cloud(b))
            total = ev("parallel_cost(get_axis('a'), get_axis('b'))", scene) + ev(
                "perpendicular_cost(get_axis('a'), get_axis('b'))", scene
            )
            assert abs(total - 1.0) < 1e-12

    def test_rigid_invariance_under_common_rotation(self):
        rng = np.random.default_rng(23)
        a, b = line_cloud([1, 0.3, 0]), line_cloud([0, 1, 0.4])
        base = ev(
            "parallel_cost(get_axis('a'), get_axis('b'))", two_part_scene("a", a, "b", b)
        )
        for _ in range(20):
            rot = random_rotation(rng)
            moved = ev(
                "parallel_cost(get_axis('a'), get_axis('b'))",
                two_part_scene("a", a @ rot.T, "b", b @ rot.T),
            )
            assert abs(base - moved) < 1e-6

    def test_sign_insensitivity(self):
        a, b = line_cloud([1, 2, 0.5]), line_cloud([0.2, 1, 1])
        value1 = ev(
            "parallel_cost(get_axis('a'), get_axis('b'))", two_part_scene("a", a, "b", b)
        )
        value2 = ev(
            "parallel_cost(get_axis('a'), get_axis('b'))", two_part_scene("a", -a, "b", b)
        )
        assert abs(value1 - value2) < 1e-12

    def test_zero_vector_degenerate(self):
        scene = single_part_scene("a", line_cloud([1, 0, 0]))
        with pytest.raises(DegenerateAxisError):
            ev("parallel_cost(get_axis('a'), [0, 0, 0])", scene)


class TestUprightCost:
    def scene(self, up, down):
        return two_part_scene("top", [up], "base", [down])

    def test_up_above_down_is_zero(self):
        assert ev("upright_cost(up_part='top', down_part='base')", self.scene((0, 0, 1), (0, 0, 0))) < 1e-12

    def test_up_below_down_is_two(self):
        value = ev("upright_cost(up_part='top', down_part='base')", self.scene((0, 0, -1), (0, 0, 0)))
        assert abs(value - 2.0) < 1e-12

    def test_horizontal_is_one(self):
        value = ev("upright_cost(up_part='top', down_part='base')", self.scene((1, 0, 0), (0, 0, 0)))
        assert abs(value - 1.0) < 1e-12

    def test_coincident_centroids_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            ev("upright_cost(up_part='top', down_part='base')", self.scene((0, 0, 0), (0, 0, 0)))


class TestRotateOrbit:
    def test_rotate_cost_zero_at_target(self):
        scene = two_part_scene("a", line_cloud([0, 0, 1]), "b", line_cloud([0, 1, 1]))
        value = ev(
            "rotate_cost(get_axis('a'), 0.7853981633974483, get_axis('b'))", scene
        )
        assert value < 1e-9

    def test_rotate_cost_normalized_by_pi(self):
        scene = two_part_scene("a", line_cloud([1, 0, 0]), "b", line_cloud([0, 1, 0]))
        value = ev("rotate_cost(get_axis('a'), 0, get_axis('b'))", scene)
        assert abs(value - 0.5) < 1e-9

    def test_orbit_cost_zero_at_radius(self):
        center = line_cloud([0, 0, 1], center=(0, 0, 0))
        scene = two_part_scene("pole", center, "ball", [(0.5, 0, 0.2)])
        assert ev("orbit_cost('pole', 0.5, 'ball')", scene) < 1e-9

    def test_orbit_cost_point_line_distance_oracle(self):
        center = line_cloud([0, 0, 1], center=(0, 0, 0))
        scene = two_part_scene("pole", center, "ball", [(2.0, 0, 0.4)])
        value = ev("orbit_cost('pole', 0.5, 'ball')", scene)
        assert abs(value - 1.5) < 1e-9


class TestGripperCosts:
    def test_fully_open(self):
        scene = single_part_scene("x", [(0, 0, 0)], open_fraction=1.0)
        assert ev("gripper_open_cost()", scene) == 0.0
        assert ev("gripper_close_first_cost()", scene) == 1.0

    def test_half_open(self):
        scene = single_part_scene("x", [(0, 0, 0)], open_fraction=0.5)
        assert ev("gripper_open_cost()", scene) == 0.5
        assert ev("gripper_close_first_cost()", scene) == 0.5


class TestGetters:
    def test_gripper_position(self):
        scene = single_part_scene("x", [(5, 5, 5)], gripper=(0.1, 0.2, 0.3))
        value = ev("move_cost(get_gripper_pos(), [0.1, 0.2, 0.3])", scene)
        assert value < 1e-12

    def test_centroid_last_reads_history(self):
        base = single_part_scene("x", [(1, 1, 1)], gripper=(1, 1, 1))
        snap = SceneSnapshot(Point3(0, 0, 0), {"x": Point3(0, 0, 0)})
        scene = Scene(
            parts=base.parts,
            grasped=base.grasped,
            gripper_position=base.gripper_position,
            gripper_open_fraction=base.gripper_open_fraction,
            history=(snap,),
        )
        assert ev("move_cost(centroid_last('gripper'), [0, 0, 0])", scene) < 1e-12

    def test_centroid_last_fresh_scene_errors(self):
        scene = single_part_scene("x", [(0, 0, 0)])
        with pytest.raises(EmptyHistoryError):
            ev("move_cost(centroid_last('gripper'), [0, 0, 0])", scene)

    def test_direction_of_coincident_parts_degenerate(self):
        scene = two_part_scene("a", [(0.1, 0.2, 0.3)], "b", [(0.1, 0.2, 0.3)])
        with pytest.raises(DegenerateDirectionError):
            ev("parallel_cost(direction_of(start='a', end='b'), [0, 0, 1])", scene)

    def test_get_height_box_fixture(self):
        corners = [(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 5)]
        scene = single_part_scene("box", corners)
        assert ev("move_cost(get_gripper_pos(), [get_height('box'), 0, 0])", scene) == pytest.approx(
            math.sqrt(25), abs=1e-12
        )

    def test_missing_part(self):
        scene = single_part_scene("x", [(0, 0, 0)])
        with pytest.raises(MissingPartError):
            ev("move_cost(get_centroid('ghost'), [0, 0, 0])", scene)

    def test_part_resolver_hook(self):
        scene = single_part_scene("cup rim", [(1, 2, 3)])

        def resolver(name):
            return scene.parts.get("cup rim") if name.startswith("cup") else None

        value = ev(
            "move_cost(get_centroid('cup edge'), [1, 2, 3])", scene, part_resolver=resolver
        )
        assert value < 1e-12

    def test_resolver_is_asked_once_per_name_per_context(self):
        scene = two_part_scene(
            "knife blade", line_cloud([1, 0, 0]), "carrot", line_cloud([0, 1, 0], center=(0, 1, 0))
        )
        calls = Counter()

        def resolver(name):
            calls[name] += 1
            return scene.parts.get("knife blade" if name == "blade edge" else name)

        program = typed(
            "orbit_cost('blade edge', 0.5, 'carrot') + parallel_cost(get_axis('blade edge'), [1, 0, 0])"
            " + move_cost(get_centroid('blade edge'), [0, 0, 0])"
        )
        ctx = EvalContext(scene, part_resolver=resolver)
        first = evaluate(program, ctx)
        assert evaluate(program, ctx) == first == pytest.approx(0.5, abs=1e-12)
        assert calls == {"blade edge": 1, "carrot": 1}
        assert not ctx.resolve_point("carrot").flags.writeable  # kept, so shared by every read

    def test_a_failed_resolution_is_not_kept(self):
        scene = single_part_scene("cup", line_cloud([0, 0, 1]))
        calls = []

        def resolver(name):
            calls.append(name)
            return None if len(calls) == 1 else scene.parts["cup"]

        program = typed("move_cost(get_centroid('mug'), [0, 0, 0]) + parallel_cost(get_axis('mug'), [0, 0, 1])")
        ctx = EvalContext(scene, part_resolver=resolver)
        with pytest.raises(MissingPartError):
            evaluate(program, ctx)
        assert evaluate(program, ctx) < 1e-12
        assert calls == ["mug", "mug"]


class TestEvalStructure:
    def test_sum_of_zero_terms(self):
        scene = single_part_scene("x", [(0, 0, 0)], open_fraction=1.0)
        assert ev("gripper_open_cost() + gripper_open_cost()", scene) == 0.0

    def test_additivity_exact(self):
        scene = two_part_scene("a", [(0.3, 0, 0)], "b", [(0, 0.4, 0)])
        lhs = ev("move_cost(get_centroid('a'), [0, 0, 0]) + move_cost(get_centroid('b'), [0, 0, 0])", scene)
        rhs = ev("move_cost(get_centroid('a'), [0, 0, 0])", scene) + ev(
            "move_cost(get_centroid('b'), [0, 0, 0])", scene
        )
        assert lhs == rhs

    def test_carrot_knife_listing_on_analytic_scene(self):
        scene = fixtures.make_scene("carrot_knife_solved")
        assert ev(CARROT_KNIFE_PROGRAM, scene) < 1e-6

    def test_non_negativity_across_fixture_scenes(self):
        programs = [
            CARROT_KNIFE_PROGRAM,
            "gripper_open_cost() + gripper_close_first_cost()",
        ]
        for kind in ("carrot_knife", "carrot_knife_solved"):
            scene = fixtures.make_scene(kind)
            for program in programs:
                assert ev(program, scene) >= 0.0

    def test_non_finite_cost_is_an_eval_error(self):
        scene = single_part_scene("a", [(0, 0, 0)])
        # Each literal is finite; the sum overflows, and inf - inf is NaN.
        for source in (
            "move_cost(get_centroid('a'), [0, 0, 1e308] + [0, 0, 1e308])",
            "move_cost([0, 0, 1e308] + [0, 0, 1e308], [0, 0, 1e308] + [0, 0, 1e308])",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no numpy RuntimeWarning
                with pytest.raises(EvalError, match="not finite"):
                    ev(source, scene)

    def test_every_evaluable_word_has_an_evaluator(self):
        # Signatures are read from profiles/seam.json, evaluators defined in code.
        evaluable = {
            word.name for word in default_vocabulary().words
            if word.alias_of is None and word.result_sort != "void"
        }
        assert evaluable == set(costs._WORDS)
        assert len(evaluable) == 17

    def test_void_action_is_not_evaluable(self):
        scene = single_part_scene("x", [(0, 0, 0)])
        verdict = validate_program("gripper_open()")
        with pytest.raises(Exception):
            evaluate(verdict.typed, EvalContext(scene))


ZERO_SCENES = {
    "move_cost": lambda: (
        "move_cost(get_centroid('a'), get_centroid('b'), offset=[0, 0, 0.1])",
        two_part_scene("a", [(0, 0, 0.1)], "b", [(0, 0, 0)]),
    ),
    "move_cost_with_offset": lambda: (
        "move_cost_with_offset('a', offset=[0, 0, 0.0])",
        Scene(
            parts={"a": PointCloud([(0, 0, 0)])},
            grasped=frozenset(),
            gripper_position=Point3(0, 0, 0),
            gripper_open_fraction=1.0,
            history=(SceneSnapshot(Point3(0, 0, 0), {"a": Point3(0, 0, 0)}),),
        ),
    ),
    "parallel_cost": lambda: (
        "parallel_cost(get_axis('a'), get_axis('b'))",
        two_part_scene("a", line_cloud([0, 0, 1]), "b", line_cloud([0, 0, 1], center=(1, 0, 0))),
    ),
    "perpendicular_cost": lambda: (
        "perpendicular_cost(get_axis('a'), get_axis('b'))",
        two_part_scene("a", line_cloud([1, 0, 0]), "b", line_cloud([0, 0, 1])),
    ),
    "rotate_cost": lambda: (
        "rotate_cost(get_axis('a'), 1.5707963267948966, get_axis('b'))",
        two_part_scene("a", line_cloud([1, 0, 0]), "b", line_cloud([0, 0, 1])),
    ),
    "orbit_cost": lambda: (
        "orbit_cost('a', 0.5, 'b')",
        two_part_scene("a", line_cloud([0, 0, 1]), "b", [(0.5, 0, 0)]),
    ),
    "upright_cost": lambda: (
        "upright_cost(up_part='a', down_part='b')",
        two_part_scene("a", [(0, 0, 1)], "b", [(0, 0, 0)]),
    ),
    "gripper_open_cost": lambda: (
        "gripper_open_cost()",
        single_part_scene("x", [(0, 0, 0)], open_fraction=1.0),
    ),
    "gripper_close_first_cost": lambda: (
        "gripper_close_first_cost()",
        single_part_scene("x", [(0, 0, 0)], open_fraction=0.0),
    ),
}


@pytest.mark.parametrize("word", sorted(ZERO_SCENES))
def test_zero_at_satisfaction(word):
    source, scene = ZERO_SCENES[word]()
    assert ev(source, scene) < 1e-9


class TestSoundness:
    def test_every_checked_program_evaluates_without_sort_errors(self):
        # Runtime misses (unknown parts, empty history) are legal; sort-level
        # failures after type checking are not.
        scene = fixtures.make_scene("carrot_knife")
        programs = [
            CARROT_KNIFE_PROGRAM,
            "parallel_cost(get_axis('carrot'), get_axis('knife blade'))",
            "move_cost('gripper', 'carrot')",
            "gripper_open_cost() + gripper_close_first_cost()",
            "move_cost('gripper', centroid_last('gripper') + "
            "direction_of(start='carrot', end='gripper') * 0.2)",
            "move_cost_with_offset('knife', offset=[0, 0, get_height('knife') + 0.1])",
            "orbit_cost('carrot', 0.05, 'knife blade')",
            "upright_cost(up_part='knife', down_part='knife blade')",
            "rotate_cost(get_axis('carrot'), 1.0, get_axis('knife blade'))",
            "move_cost(get_centroid('ghost part'), [0, 0, 0])",
        ]
        from maniplang.errors import ManiplangError

        for source in programs:
            typed_program = typed(source)
            try:
                value = evaluate(typed_program, EvalContext(scene))
            except ManiplangError:
                continue  # runtime error, allowed
            assert isinstance(value, float) and value >= 0.0


class TestMotionSubjects:
    def test_move_cost_subject_is_source(self):
        subjects = motion_subjects(typed("move_cost(get_centroid('cube'), get_centroid('target'))"))
        assert "cube" in subjects

    def test_gripper_words_have_no_subjects(self):
        assert motion_subjects(typed("gripper_open_cost()")) == frozenset()

    def test_press_template_moves_gripper(self):
        subjects = motion_subjects(typed("gripper_close_first_cost() + move_cost('gripper', 'button')"))
        assert "gripper" in subjects

    def test_alignment_subjects_include_axis_parts(self):
        subjects = motion_subjects(typed(CARROT_KNIFE_PROGRAM))
        assert {"carrot", "knife blade", "knife"} <= subjects

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("move_cost(centroid('a'), get_centroid('b'), offset=direction_of('c', 'd') * 0.1)", {"a"}),
            ("move_cost_with_offset('a', offset=direction_of('b', 'c') * get_height('d'))", {"a"}),
            ("upright_cost('a', 'b')", {"a", "b"}),
            ("orbit_cost('a', get_width('b'), 'c')", {"c"}),
            ("parallel_cost(get_axis('a'), get_axis('b'))", {"a", "b"}),
            ("perpendicular_cost(get_axis('a'), [0, 0, 1]) + gripper_open_cost()", {"a"}),
            ("rotate_cost(get_axis('a'), get_height('b'), direction_of('c', 'd'))", {"a", "c", "d"}),
            # Getters pass part names through only inside a subject argument,
            # and extent getters never do.
            ("move_cost(centroid_last('a') + get_axis('b') * get_length('c'), 'd')", {"a", "b"}),
            ("move_cost('a', 'b') + 0.5", {"a"}),
        ],
        ids=[
            "move_cost", "move_cost_with_offset", "upright_cost", "orbit_cost",
            "parallel_cost", "perpendicular_cost", "rotate_cost",
            "getters_pass_through", "literal_source",
        ],
    )
    def test_subjects_per_word(self, source, expected):
        assert motion_subjects(typed(source)) == expected
