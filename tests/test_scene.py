import numpy as np
import pytest

from maniplang.geometry import Point3, PointCloud
from maniplang.scene import Scene, SceneError, load_scene, save_scene, scene_from_json, scene_to_json

MISSING = object()  # a FIELD_MESSAGES value: the key is removed from the document


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

    # Where each number field of a scene document sits, and how its messages name it.
    NUMBER_FIELDS = {
        "point": (("parts", "cup", "points", 0, 1), "part 'cup' points must be a JSON list of list of float"),
        "position": (("gripper", "position", 2), "gripper position must be a JSON list of float"),
        "open_fraction": (("gripper", "open_fraction"), "gripper open_fraction must be a JSON float"),
        "history_gripper": (("history", 0, "gripper", 0), "history gripper must be a JSON list of float"),
        "history_part": (("history", 0, "parts", "cup", 2), "history part 'cup' must be a JSON list of float"),
    }

    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_integer_too_large_for_a_float_raises_scene_error(self, field):
        doc = scene_to_json(minimal())
        doc["history"] = [{"gripper": [0, 0, 0], "parts": {"cup": [0, 0, 0]}}]
        scene_from_json(doc)
        (*path, last), named = self.NUMBER_FIELDS[field]
        holder = doc
        for key in path:
            holder = holder[key]
        holder[last] = 10**400
        with pytest.raises(SceneError) as err:
            scene_from_json(doc)
        assert str(err.value) == f"{named}, got an int too large for a float"

    # A bad value at a path of the document (the empty path is the whole document;
    # MISSING removes the key), and the message that names its field.
    FIELD_MESSAGES = {
        "huge_int_position": (
            ("gripper", "position"), 10**400,
            "gripper position must be a JSON list of float, got 1000000000000000000000000000000000000...",
        ),
        "unprintable_int_position": (
            ("gripper", "position"), 10**5000,
            "gripper position must be a JSON list of float, got a value too long to print",
        ),
        "nan_gripper": (
            ("gripper", "position", 0), float("nan"), "gripper position: non-finite point: (nan, 0, 0)",
        ),
        "two_item_position": (
            ("gripper", "position"), [0, 0], "gripper position: a point has 3 coordinates, got 2",
        ),
        "empty_points": (
            ("parts", "cup", "points"), [], "part 'cup' points: point cloud must be (N>=1, 3), got shape (0,)",
        ),
        "nan_points": (
            ("parts", "cup", "points", 0, 2), float("nan"),
            "part 'cup' points: point cloud contains NaN or inf coordinates",
        ),
        "two_item_point": (
            ("parts", "cup", "points", 0), [0, 0], "part 'cup' points: a point has 3 coordinates, got 2",
        ),
        "four_item_history_gripper": (
            ("history", 0, "gripper"), [0, 0, 0, 0], "history gripper: a point has 3 coordinates, got 4",
        ),
        "infinite_history_part": (
            ("history", 0, "parts", "cup", 1), float("inf"), "history part 'cup': non-finite point: (0, inf, 0)",
        ),
        "document_a_list": ((), [1, 2], "scene document must be a JSON object, got [1, 2]"),
        "parts_an_int": (("parts",), 5, "parts must be a JSON object, got 5"),
        "no_parts": (("parts",), MISSING, "scene document: missing parts"),
        "part_an_int": (("parts", "cup"), 5, "part 'cup' must be a JSON object, got 5"),
        "no_points": (("parts", "cup", "points"), MISSING, "part 'cup': missing points"),
        "gripper_a_list": (("gripper",), [0, 0, 0], "gripper must be a JSON object, got [0, 0, 0]"),
        "no_gripper": (("gripper",), MISSING, "scene document: missing gripper"),
        "no_position": (("gripper", "position"), MISSING, "gripper: missing position"),
        "no_open_fraction": (("gripper", "open_fraction"), MISSING, "gripper: missing open_fraction"),
        "history_an_int": (("history",), 5, "history must be a JSON list, got 5"),
        "history_entry_an_int": (("history", 0), 5, "history entry 0 must be a JSON object, got 5"),
        "no_history_gripper": (("history", 0, "gripper"), MISSING, "history entry 0: missing gripper"),
        "history_parts_a_list": (
            ("history", 0, "parts"), [[0, 0, 0]], "history entry 0 parts must be a JSON object, got [[0, 0, 0]]",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FIELD_MESSAGES))
    def test_bad_field_message_names_the_field(self, case):
        doc = {
            "parts": {"cup": {"points": [[0, 0, 0]]}},
            "gripper": {"position": [0, 0, 0], "open_fraction": 1.0},
            "history": [{"gripper": [0, 0, 0], "parts": {"cup": [0, 0, 0]}}],
        }
        scene_from_json(doc)
        path, value, message = self.FIELD_MESSAGES[case]
        if not path:
            doc = value
        else:
            *path, last = path
            holder = doc
            for key in path:
                holder = holder[key]
            if value is MISSING:
                del holder[last]
            else:
                holder[last] = value
        with pytest.raises(SceneError) as err:
            scene_from_json(doc)
        assert str(err.value) == message

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
