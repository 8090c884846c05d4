"""Scene model: named part clouds, gripper state, and history snapshots.

The JSON schema is fixed field-for-field:

    {
      "parts": {name: {"points": [[x, y, z], ...],
                       "grasped": bool,
                       "object": str          # optional object label
                      }},
      "gripper": {"position": [x, y, z], "open_fraction": f},
      "history": [{"gripper": [x, y, z], "parts": {name: [x, y, z]}}, ...]
    }

History entries record where the gripper and each part centroid were before
earlier stages; `centroid_last` and the offset-move cost read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ManiplangError
from .files import member, read_json, typed_value, write_json
from .geometry import GeometryError, Point3, PointCloud, centroid

GRIPPER_NAME = "gripper"


class SceneError(ManiplangError):
    pass


@dataclass(frozen=True)
class SceneSnapshot:
    gripper_position: Point3
    part_centroids: dict[str, Point3]


@dataclass(frozen=True)
class Scene:
    parts: dict[str, PointCloud]
    grasped: frozenset[str]
    gripper_position: Point3
    gripper_open_fraction: float
    history: tuple[SceneSnapshot, ...] = ()
    objects: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if GRIPPER_NAME in self.parts:
            raise SceneError(f"{GRIPPER_NAME!r} is reserved and cannot name a part")
        # A blank name has no tokens, so every part would ride with it when grasped.
        blank = sorted(name for name in self.parts if not name.strip())
        if blank:
            raise SceneError(f"part names must not be empty or whitespace: {blank}")
        unknown = self.grasped - set(self.parts)
        if unknown:
            raise SceneError(f"grasped names not in parts: {sorted(unknown)}")
        if not 0.0 <= self.gripper_open_fraction <= 1.0:
            raise SceneError(f"open fraction {self.gripper_open_fraction} outside [0, 1]")
        stray = set(self.objects) - set(self.parts)
        if stray:
            raise SceneError(f"object labels for unknown parts: {sorted(stray)}")

    def snapshot(self) -> SceneSnapshot:
        return SceneSnapshot(
            gripper_position=self.gripper_position,
            part_centroids={name: centroid(cloud) for name, cloud in self.parts.items()},
        )


def scene_to_json(scene: Scene) -> dict:
    def _triple(p: Point3) -> list[float]:
        return [round(v, 9) for v in (p.x, p.y, p.z)]

    parts = {}
    for name in scene.parts:
        coords = scene.parts[name].coords
        with np.errstate(over="ignore"):
            rounded = coords.round(9)  # overflows to inf above ~1.8e299; those stay as they are
        rows = np.where(np.isfinite(rounded), rounded, coords).tolist()
        entry = {"points": rows, "grasped": name in scene.grasped}
        if name in scene.objects:
            entry["object"] = scene.objects[name]
        parts[name] = entry
    return {
        "parts": parts,
        "gripper": {
            "position": _triple(scene.gripper_position),
            "open_fraction": scene.gripper_open_fraction,
        },
        "history": [
            {
                "gripper": _triple(snap.gripper_position),
                "parts": {name: _triple(c) for name, c in snap.part_centroids.items()},
            }
            for snap in scene.history
        ],
    }


def scene_from_json(doc) -> Scene:
    """The scene of a JSON document; each error is a SceneError naming its field."""

    def points(value, what: str, depth: int):
        """The field's Point3 (depth 1) or PointCloud (depth 2); errors name the field."""
        value = typed_value(value, float, what, SceneError, depth)
        for xyz in value if depth == 2 else [value]:
            if len(xyz) != 3:
                raise SceneError(f"{what}: a point has 3 coordinates, got {len(xyz)}")
        try:
            return PointCloud(value) if depth == 2 else Point3(*value)
        except GeometryError as exc:
            raise SceneError(f"{what}: {exc}") from exc

    parts = {}
    grasped = set()
    objects = {}
    parts_doc = member(doc, "parts", "scene document", SceneError)
    for name, entry in typed_value(parts_doc, dict, "parts", SceneError).items():
        what = f"part {name!r}"
        parts[name] = points(member(entry, "points", what, SceneError), f"{what} points", 2)
        if typed_value(member(entry, "grasped", what, SceneError, False), bool, f"{what} grasped", SceneError):
            grasped.add(name)
        label = member(entry, "object", what, SceneError, None)
        if label is not None:
            objects[name] = typed_value(label, str, f"{what} object", SceneError)
    gripper = typed_value(member(doc, "gripper", "scene document", SceneError), dict, "gripper", SceneError)
    history = []
    snaps = member(doc, "history", "scene document", SceneError, [])
    for i, snap in enumerate(typed_value(snaps, list, "history", SceneError)):
        what = f"history entry {i}"
        centroids = typed_value(member(snap, "parts", what, SceneError, {}), dict, f"{what} parts", SceneError)
        history.append(
            SceneSnapshot(
                gripper_position=points(member(snap, "gripper", what, SceneError), "history gripper", 1),
                part_centroids={n: points(c, f"history part {n!r}", 1) for n, c in centroids.items()},
            )
        )
    position = points(member(gripper, "position", "gripper", SceneError), "gripper position", 1)
    open_fraction = member(gripper, "open_fraction", "gripper", SceneError)
    return Scene(
        parts=parts,
        grasped=frozenset(grasped),
        gripper_position=position,
        gripper_open_fraction=float(typed_value(open_fraction, float, "gripper open_fraction", SceneError)),
        history=tuple(history),
        objects=objects,
    )


def save_scene(path, scene: Scene) -> None:
    write_json(path, scene_to_json(scene), SceneError)


def load_scene(path) -> Scene:
    return scene_from_json(read_json(path, SceneError))
