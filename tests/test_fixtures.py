import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maniplang import fixtures
from maniplang.costs import EvalContext, evaluate
from maniplang.geometry import angle_between, principal_axis
from maniplang.language import (
    parse,
    type_check,
    validate_program,
    vocabulary_from_json,
)
from maniplang.language.typecheck import Accepted
from maniplang.metrics import load_profiles
from maniplang.pipeline import split_stages
from maniplang.retrieval import load_database
from maniplang.scene import load_scene, scene_from_json, scene_to_json
from maniplang.solver import transform_scene

from util import CARROT_KNIFE_PROGRAM


class TestScenes:
    def test_determinism(self):
        a = fixtures.make_scene("cube_target", 7)
        b = fixtures.make_scene("cube_target", 7)
        assert sorted(a.parts) == sorted(b.parts)
        for name in a.parts:
            assert np.array_equal(a.parts[name].coords, b.parts[name].coords)
        assert a.gripper_position == b.gripper_position

    def test_seed_changes_clouds(self):
        a = fixtures.make_scene("cube_target", 7)
        b = fixtures.make_scene("cube_target", 8)
        assert not np.array_equal(a.parts["cube"].coords, b.parts["cube"].coords)

    def test_negative_seed(self, tmp_path):
        with pytest.raises(fixtures.FixtureError, match="non-negative"):
            fixtures.make_scene("pen_holder", -1)
        with pytest.raises(fixtures.FixtureError, match="non-negative"):
            fixtures.known_solution("cube_target", -1)
        with pytest.raises(fixtures.FixtureError, match="non-negative"):
            fixtures.regen(tmp_path / "tree", seed=-1)
        assert not (tmp_path / "tree").exists()  # nothing half-written

    def test_unknown_kind(self):
        with pytest.raises(fixtures.FixtureError):
            fixtures.make_scene("volcano")

    def test_pen_holder_angle_is_thirty_degrees(self):
        scene = fixtures.make_scene("pen_holder")
        pen = principal_axis(scene.parts["pen"]).as_array()
        holder = principal_axis(scene.parts["pen holder"]).as_array()
        angle = math.degrees(angle_between(pen, holder))
        angle = min(angle, 180.0 - angle)
        assert abs(angle - 30.0) < 0.5

    def test_carrot_knife_constructed_solution(self):
        expr = type_check(parse(CARROT_KNIFE_PROGRAM))
        solved = fixtures.make_scene("carrot_knife_solved")
        assert evaluate(expr, EvalContext(solved)) < 1e-6

        start = fixtures.make_scene("carrot_knife")
        pose = fixtures.known_solution("carrot_knife")
        moved = transform_scene(start, pose)
        assert evaluate(expr, EvalContext(moved)) < 1e-6

    def test_point_density(self):
        scene = fixtures.make_scene("teapot_lid")
        for cloud in scene.parts.values():
            assert len(cloud) == fixtures.POINTS_PER_PART

    def test_scene_json_round_trip(self):
        scene = fixtures.make_scene("pen_holder")
        doc = scene_to_json(scene)
        again = scene_to_json(scene_from_json(doc))
        assert doc == again

    def test_shipped_scene_files_load(self):
        for kind in fixtures.SCENE_KINDS:
            scene = load_scene(fixtures.shipped_scene_path(kind))
            assert scene.parts


class TestTaskCorpus:
    def test_exactly_thirty_three(self):
        assert len(fixtures.load_tasks()) == 33

    def test_titles_match_corpus(self):
        titles = [t.title for t in fixtures.load_tasks()]
        assert titles[0] == "Sort the Red Cube"
        assert titles[10] == "Push the Dice"
        assert titles[32] == "Plug in the Lamp"
        assert len(set(titles)) == 33

    def test_ids_are_sequential(self):
        assert [t.task_id for t in fixtures.load_tasks()] == list(range(1, 34))

    def test_judgments_cover_all_tasks(self):
        for profile in load_profiles(fixtures.shipped_profiles_dir()):
            assert [o.task_id for o in profile.task_outcomes] == list(range(1, 34)), profile.name

    @pytest.mark.parametrize(
        "task",
        [
            {"task_id": "one", "title": 1, "instruction": None},
            {"task_id": True, "title": "t", "instruction": "i"},
            {"task_id": 1, "title": 1, "instruction": "i"},
            {"task_id": 1, "title": "t", "instruction": None},
        ],
        ids=["all_mistyped", "task_id_a_bool", "title_a_number", "instruction_null"],
    )
    def test_mistyped_task_field_is_fixture_error(self, tmp_path, task):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps({"tasks": [task]}), encoding="utf-8")
        with pytest.raises(fixtures.FixtureError, match="task_id|title|instruction"):
            fixtures.load_tasks(path)


class TestShippedData:
    def test_every_mock_program_validates_except_designated_garbage(self):
        for instruction, program in fixtures.load_mock_translations().items():
            for stage in split_stages(program):
                verdict = validate_program(stage)
                if instruction == fixtures.GARBAGE_INSTRUCTION:
                    assert not isinstance(verdict, Accepted)
                else:
                    assert isinstance(verdict, Accepted), (instruction, verdict.reason)

    def test_profiles_load_under_schema(self):
        profiles = load_profiles(fixtures.shipped_profiles_dir())
        assert {p.name for p in profiles} == {
            "seam", "seam_core", "rekep", "omnimanip", "instruct2act",
        }

    def test_part_database_loads(self):
        db = load_database(fixtures.shipped_part_database_path())
        assert len(db.entries) >= 5

    def test_seam_core_agrees_with_seam(self):
        seam, seam_core = (
            json.loads((fixtures.shipped_profiles_dir() / f"{stem}.json").read_text(encoding="utf-8"))
            for stem in ("seam", "seam_core")
        )
        full, rules = vocabulary_from_json(seam)
        core, core_rules = vocabulary_from_json(seam_core)
        by_name = {word.name: word for word in full.words}
        assert all(word == by_name[word.name] for word in core.words)
        assert core_rules == rules
        assert seam_core["task_outcomes"] == seam["task_outcomes"]
        assert fixtures.GARBAGE_INSTRUCTION in fixtures.load_mock_translations()

    def test_every_data_file_is_packaged(self):
        tomllib = pytest.importorskip("tomllib")
        package = Path(fixtures.__file__).parent
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        setuptools = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"]
        packaged = {path for pattern in setuptools["package-data"]["maniplang"] for path in package.glob(pattern)}
        data_files = {path for path in (package / "data").rglob("*") if path.is_file()}
        assert data_files - packaged == set()

    def test_vocabulary_census_file(self):
        doc = json.loads((fixtures.shipped_profiles_dir() / "seam.json").read_text())
        assert len(doc["words"]) == 20

    def test_regen_is_byte_identical_to_shipped(self, tmp_path):
        written = fixtures.regen(tmp_path)
        data_root = Path(fixtures.shipped_tasks_path()).parent
        assert written
        # The same files on both sides: a stale shipped file fails too.
        shipped_files = {p.relative_to(data_root) for p in data_root.rglob("*") if p.is_file()}
        assert {p.relative_to(tmp_path) for p in written} == shipped_files
        for path in written:
            relative = path.relative_to(tmp_path)
            assert filecmp.cmp(path, data_root / relative, shallow=False), f"{relative} differs"

    def test_prompt_templates_validate_after_substitution(self):
        from maniplang.pipeline import instantiate_template

        fills = {
            "source object part": "knife blade",
            "target object part": "carrot",
            "up object part": "knife",
            "down object part": "knife blade",
            "object part": "carrot",
            "part to pull away from": "drawer",
            "x": "0", "y": "0", "z": "0.15",
            "vector": "get_axis('carrot')",
            "offset distance": "0.15",
        }
        for action in fixtures.default_prompt_template().atomic_actions:
            text = instantiate_template(action.template, fills)
            verdict = validate_program(text)
            assert isinstance(verdict, Accepted), (action.description, verdict.reason)
