import numpy as np
import pytest

from maniplang.geometry import Point3, PointCloud
from maniplang.scene import Scene, SceneError, load_scene, save_scene, scene_from_json, scene_to_json


def minimal(**overrides):
    kwargs = dict(
        parts={"cup": PointCloud([(0, 0, 0), (0, 0, 1)])},
        grasped=frozenset(),
        gripper_position=Point3(0, 0, 0),
        gripper_open_fraction=1.0,
    )
    kwargs.update(overrides)
    return Scene(**kwargs)


class TestInvariants:
    def test_gripper_is_a_reserved_name(self):
        with pytest.raises(SceneError):
            minimal(parts={"gripper": PointCloud([(0, 0, 0)])})

    @pytest.mark.parametrize("name", ["", " ", "\t\n"])
    def test_part_name_is_not_blank(self, name):
        with pytest.raises(SceneError, match="empty or whitespace"):
            minimal(parts={name: PointCloud([(0, 0, 0)])})

    def test_blank_grasped_name_is_rejected_on_load(self):
        # " ".split() is the empty token prefix, which every name starts with.
        parts = {" ": True, "table": False, "mug handle": False}
        doc = {
            "parts": {name: {"points": [[0, 0, 0]], "grasped": grasped} for name, grasped in parts.items()},
            "gripper": {"position": [0, 0, 0], "open_fraction": 0.0},
        }
        with pytest.raises(SceneError, match=r"empty or whitespace: \[' '\]"):
            scene_from_json(doc)

    def test_grasped_must_name_parts(self):
        with pytest.raises(SceneError):
            minimal(grasped=frozenset({"ghost"}))

    def test_open_fraction_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(SceneError):
                minimal(gripper_open_fraction=bad)

    def test_object_labels_must_name_parts(self):
        with pytest.raises(SceneError):
            minimal(objects={"ghost": "ghost"})

    def test_point_cloud_is_immutable(self):
        cloud = PointCloud([(0, 0, 0), (1, 1, 1)])
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 5.0
        with pytest.raises(AttributeError):
            cloud.coords = np.zeros((1, 3))


class TestJson:
    def test_field_names_are_bit_exact(self):
        doc = scene_to_json(minimal(grasped=frozenset({"cup"})))
        assert set(doc) == {"parts", "gripper", "history"}
        assert set(doc["parts"]["cup"]) == {"points", "grasped"}
        assert set(doc["gripper"]) == {"position", "open_fraction"}

    def test_object_field_is_optional(self):
        doc = scene_to_json(minimal(objects={"cup": "cup"}))
        assert doc["parts"]["cup"]["object"] == "cup"
        loaded = scene_from_json(doc)
        assert loaded.objects == {"cup": "cup"}

    def test_malformed_document_raises_scene_error(self):
        gripper = {"position": [0, 0, 0], "open_fraction": 1.0}
        for doc in (
            {"parts": {}},
            {"parts": {"cup": {"points": []}}, "gripper": gripper},
            {"parts": {}, "gripper": {**gripper, "position": [float("nan"), 0, 0]}},
            {"parts": {"cup": {"points": [[0, 0, 0]], "grasped": "false"}}, "gripper": gripper},
            {"parts": {"cup": {"points": [[0, 0, 0]], "object": ["cup"]}}, "gripper": gripper},
            {"parts": {}, "gripper": {**gripper, "open_fraction": "0.5"}},
            {"parts": {}, "gripper": {**gripper, "open_fraction": True}},
            {"parts": {}, "gripper": {**gripper, "position": [True, False, 0]}},
            {"parts": {"cup": {"points": [[True, 0, 0]]}}, "gripper": gripper},
            {"parts": {"cup": {"points": [["0", "0", "0"]]}}, "gripper": gripper},
            {"parts": {"cup": {"points": "abc"}}, "gripper": gripper},
            {"parts": {}, "gripper": gripper, "history": [{"gripper": [True, 0, 0]}]},
            {"parts": {}, "gripper": gripper, "history": [{"gripper": [0, 0, 0], "parts": {"cup": [0, False, 0]}}]},
        ):
            with pytest.raises(SceneError):
                scene_from_json(doc)

    # Where each number field of a scene document sits.
    NUMBER_FIELDS = {
        "point": ("parts", "cup", "points", 0, 1),
        "position": ("gripper", "position", 2),
        "open_fraction": ("gripper", "open_fraction"),
        "history_gripper": ("history", 0, "gripper", 0),
        "history_part": ("history", 0, "parts", "cup", 2),
    }

    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_integer_too_large_for_a_float_raises_scene_error(self, field):
        doc = scene_to_json(minimal())
        doc["history"] = [{"gripper": [0, 0, 0], "parts": {"cup": [0, 0, 0]}}]
        scene_from_json(doc)
        *path, last = self.NUMBER_FIELDS[field]
        holder = doc
        for key in path:
            holder = holder[key]
        holder[last] = 10**400
        with pytest.raises(SceneError, match="too large"):
            scene_from_json(doc)

    def test_history_round_trip(self):
        scene = minimal()
        snapped = Scene(
            parts=scene.parts,
            grasped=scene.grasped,
            gripper_position=scene.gripper_position,
            gripper_open_fraction=scene.gripper_open_fraction,
            history=(scene.snapshot(),),
        )
        doc = scene_to_json(snapped)
        loaded = scene_from_json(doc)
        assert len(loaded.history) == 1
        assert loaded.history[0].part_centroids["cup"] == Point3(0.0, 0.0, 0.5)

    def test_huge_finite_coordinates_round_trip(self, tmp_path):
        # Rounding to 9 places overflows above ~1.8e299; such values are written as they are.
        scene = minimal(parts={"cup": PointCloud([(1e308, 1 / 3, 0), (-1e308, 0, 0)])})
        save_scene(tmp_path / "scene.json", scene)
        loaded = load_scene(tmp_path / "scene.json")
        assert loaded.parts["cup"].coords.tolist() == [[1e308, 0.333333333, 0.0], [-1e308, 0.0, 0.0]]
