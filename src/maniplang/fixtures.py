"""Synthetic scenes and shipped data files consumed across the test suite.

Scene construction is deterministic given the seed and analytically exact
where a test needs a known optimum: after sampling, clouds are nudged (a
rigid rotation about their own centroid, a rigid shift) so the *measured*
principal axes and centroids satisfy the advertised relation to machine
precision: the knife-blade axis is exactly perpendicular to the
carrot axis at the known solved pose, and the pen axis sits exactly 30
degrees off the holder axis. Sampling noise therefore never leaks into
tolerances.

The data tree at `files.DATA_ROOT` (`maniplang/data`) holds
`scenes/<kind>.json` (one per `SCENE_KINDS` entry, generated from the seed)
and the tables, which are edited as data and exist nowhere else:
`tasks_33.json` (the task corpus), `part_database.json`,
`mock_translations.json` and `profiles/<stem>.json` (one representation
profile per method, each task's verdict embedded; `language` reads SEAM's
vocabulary and grammar from `profiles/seam.json`).
`maniplang fixtures regen --out DIR` generates the scenes and copies the
tables byte for byte, so its tree is byte-identical to the shipped one.
The prompt template is `default_prompt_template()`, in code only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ManiplangError
from .files import DATA_ROOT, read_json, read_text, typed_value, write_json, write_text
from .geometry import (
    Point3,
    PointCloud,
    PoseSE3,
    principal_axis,
    rotation_about_axis,
    rotation_xyz,
)
from .retrieval import PartDatabase, load_database
from .scene import Scene, scene_to_json

DEFAULT_SEED = 7
POINTS_PER_PART = 1000

GARBAGE_INSTRUCTION = "summon the kraken"  # keys the one invalid program in mock_translations.json


class FixtureError(ManiplangError):
    pass


@dataclass(frozen=True)
class Task:
    task_id: int
    title: str
    instruction: str


@dataclass(frozen=True)
class AtomicAction:
    """One reference expression shown to the translation model."""

    description: str
    template: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptTemplate:
    atomic_actions: tuple[AtomicAction, ...]


# -- point cloud builders -----------------------------------------------------


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise FixtureError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _box(rng, center, size) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    size = np.asarray(size, dtype=float)
    return rng.uniform(-0.5, 0.5, size=(POINTS_PER_PART, 3)) * size + center


def _cylinder(rng, center, axis, length, radius) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    t = rng.uniform(-length / 2, length / 2, size=POINTS_PER_PART)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=POINTS_PER_PART)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=POINTS_PER_PART))
    return (
        center
        + np.outer(t, axis)
        + np.outer(r * np.cos(theta), u)
        + np.outer(r * np.sin(theta), v)
    )


def _annulus(rng, center, inner, outer, thickness) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=POINTS_PER_PART)
    r = np.sqrt(rng.uniform(inner**2, outer**2, size=POINTS_PER_PART))
    z = rng.uniform(-thickness / 2, thickness / 2, size=POINTS_PER_PART)
    return center + np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _rotate_about(coords: np.ndarray, center, rotation: np.ndarray) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    return (coords - center) @ rotation.T + center


def _align_axis_to(coords: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotate the cloud about its centroid so its measured principal axis
    lands exactly on `target` (sign chosen to minimize the rotation)."""
    axis = principal_axis(PointCloud(coords)).as_array()
    target = np.asarray(target, dtype=float)
    target = target / np.linalg.norm(target)
    if float(axis @ target) < 0:
        target = -target
    cross = np.cross(axis, target)
    norm = float(np.linalg.norm(cross))
    if norm < 1e-15:
        return coords
    angle = math.atan2(norm, float(axis @ target))
    rot = rotation_about_axis(cross, angle)
    return _rotate_about(coords, coords.mean(axis=0), rot)


# -- scenes -------------------------------------------------------------------


def make_scene(kind: str, seed: int = DEFAULT_SEED) -> Scene:
    """Deterministic synthetic scene; identical (kind, seed) gives an
    identical scene."""
    if kind not in _SCENE_MAKERS:
        raise FixtureError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    return _SCENE_MAKERS[kind](seed)


def known_solution(kind: str, seed: int = DEFAULT_SEED) -> PoseSE3:
    """The constructed-by-hand optimal gripper pose for fixtures that have one."""
    if kind == "carrot_knife":
        return _carrot_knife(seed)[1]
    if kind == "cube_target":
        scene = _cube_target(seed)
        target = scene.parts["target"].coords.mean(axis=0) + np.array([0.0, 0.0, 0.1])
        cube = scene.parts["cube"].coords.mean(axis=0)
        shift = target - cube
        return PoseSE3(np.eye(3), Point3.from_array(scene.gripper_position.as_array() + shift))
    raise FixtureError(f"no known solution recorded for scene kind {kind!r}")


def _cube_target(seed: int) -> Scene:
    rng = _rng(seed)
    cube = _box(rng, (0.3, 0.0, 0.02), (0.04, 0.04, 0.04))
    target = _box(rng, (0.5, 0.2, 0.005), (0.1, 0.1, 0.01))
    return Scene(
        parts={"cube": PointCloud(cube), "target": PointCloud(target)},
        grasped=frozenset({"cube"}),
        gripper_position=Point3.from_array(cube.mean(axis=0)),
        gripper_open_fraction=0.0,
        objects={"cube": "cube", "target": "target"},
    )


def _pen_holder(seed: int) -> Scene:
    rng = _rng(seed)
    holder = _cylinder(rng, (0.45, 0.1, 0.06), (0.0, 0.0, 1.0), 0.12, 0.02)
    tilt = rotation_xyz(math.pi / 6, 0.0, 0.0) @ np.array([0.0, 0.0, 1.0])
    pen = _cylinder(rng, (0.3, -0.05, 0.2), tilt, 0.15, 0.004)
    # Pin the measured axes exactly 30 degrees apart: target = holder axis
    # rotated by pi/6 about the mutual normal.
    holder_axis = principal_axis(PointCloud(holder)).as_array()
    pen_axis = principal_axis(PointCloud(pen)).as_array()
    normal = np.cross(holder_axis, pen_axis)
    normal /= np.linalg.norm(normal)
    pen = _align_axis_to(pen, rotation_about_axis(normal, math.pi / 6) @ holder_axis)
    return Scene(
        parts={"pen": PointCloud(pen), "pen holder": PointCloud(holder)},
        grasped=frozenset({"pen"}),
        gripper_position=Point3.from_array(pen.mean(axis=0)),
        gripper_open_fraction=0.0,
        objects={"pen": "pen", "pen holder": "pen holder"},
    )


_KNIFE_OFFSET = np.array([0.0, 0.0, 0.1])  # handle sits 0.1 m above the blade


def _carrot_knife(seed: int) -> tuple[Scene, PoseSE3, Scene]:
    """(start scene, known solution pose, solved scene).

    Solved configuration: blade axis exactly perpendicular to the carrot
    axis, handle centroid exactly 0.1 m above the blade centroid. The start
    scene is that configuration rotated rigidly about the blade centroid,
    so undoing the rotation is a certificate optimum.
    """
    rng = _rng(seed)
    carrot = _cylinder(rng, (0.4, 0.0, 0.015), (1.0, 0.0, 0.0), 0.15, 0.012)
    carrot_axis = principal_axis(PointCloud(carrot)).as_array()

    blade = _box(rng, (0.4, 0.0, 0.13), (0.02, 0.12, 0.004))
    blade_axis = principal_axis(PointCloud(blade)).as_array()
    perp = blade_axis - float(blade_axis @ carrot_axis) * carrot_axis
    blade = _align_axis_to(blade, perp / np.linalg.norm(perp))
    blade_c = blade.mean(axis=0)

    handle = _box(rng, tuple(blade_c + _KNIFE_OFFSET), (0.022, 0.022, 0.1))
    handle += (blade_c + _KNIFE_OFFSET) - handle.mean(axis=0)

    solved = Scene(
        parts={
            "carrot": PointCloud(carrot),
            "knife": PointCloud(handle),
            "knife blade": PointCloud(blade),
        },
        grasped=frozenset({"knife"}),
        gripper_position=Point3.from_array(blade_c + _KNIFE_OFFSET),
        gripper_open_fraction=0.0,
        objects={"carrot": "carrot", "knife": "knife", "knife blade": "knife"},
    )

    offset_rot = rotation_xyz(0.0, 0.0, math.radians(35)) @ rotation_xyz(math.radians(20), 0.0, 0.0)
    start = replace(
        solved,
        parts={
            **solved.parts,
            "knife": PointCloud(_rotate_about(handle, blade_c, offset_rot)),
            "knife blade": PointCloud(_rotate_about(blade, blade_c, offset_rot)),
        },
        gripper_position=Point3.from_array(blade_c + offset_rot @ _KNIFE_OFFSET),
    )
    solution = PoseSE3(offset_rot.T, Point3.from_array(blade_c + _KNIFE_OFFSET))
    return start, solution, solved


def _teapot_lid(seed: int) -> Scene:
    rng = _rng(seed)
    body = _cylinder(rng, (0.5, 0.0, 0.06), (0.0, 0.0, 1.0), 0.12, 0.05)
    opening = _annulus(rng, (0.5, 0.0, 0.125), 0.038, 0.046, 0.004)
    spout = _cylinder(rng, (0.56, 0.0, 0.09), (0.95, 0.0, 0.3), 0.06, 0.008)
    lid = _cylinder(rng, (0.3, 0.2, 0.01), (0.0, 0.0, 1.0), 0.015, 0.045)
    return Scene(
        parts={
            "teapot": PointCloud(body),
            "teapot opening": PointCloud(opening),
            "teapot spout": PointCloud(spout),
            "lid": PointCloud(lid),
        },
        grasped=frozenset({"lid"}),
        gripper_position=Point3.from_array(lid.mean(axis=0)),
        gripper_open_fraction=0.0,
        objects={
            "teapot": "teapot",
            "teapot opening": "teapot",
            "teapot spout": "teapot",
            "lid": "lid",
        },
    )


_SCENE_MAKERS = {
    "cube_target": _cube_target,
    "pen_holder": _pen_holder,
    "carrot_knife": lambda seed: _carrot_knife(seed)[0],
    "carrot_knife_solved": lambda seed: _carrot_knife(seed)[2],
    "teapot_lid": _teapot_lid,
}
SCENE_KINDS = tuple(_SCENE_MAKERS)


# -- prompt templates ------------------------------------------------------------


def default_prompt_template() -> PromptTemplate:
    """The reference expressions shown to the translation model."""
    return PromptTemplate(
        atomic_actions=(
            AtomicAction(
                "move something to something with an offset",
                "move_cost('<source object part>', centroid('<target object part>') + "
                "np.array([<x>, <y>, <z>])) + "
                "parallel_cost(get_axis('<source object part>'), <vector>) + "
                "upright_cost(up_part='<up object part>', down_part='<down object part>')",
                (
                    "get_height('<object part>'), get_width('<object part>'), "
                    "get_length('<object part>') give part dimensions for sizing the offset",
                    "[<x>, <y>, <z>] is the extra displacement from the target part to the source part",
                    "to hover above the target use [0, 0, get_height('<target object part>') + a margin above 0.1]",
                    "to contact the target from the front use [0, 0, 0]",
                    "keep parallel_cost only when the source part must align with a direction; "
                    "use get_axis('<target object part>') or [0, 0, -1]",
                    "keep upright_cost only when the source object must stay upright; "
                    "up_part and down_part must belong to the same object",
                    "part names follow the form 'part of the object'",
                ),
            ),
            AtomicAction(
                "pick something up or put something down when grasped",
                "move_cost_with_offset('<source object part>', offset=[0, 0, <z>])",
                (
                    "to lift: z = get_height('<source object part>') + a positive margin",
                    "to place: z = -get_height('<source object part>') - a margin",
                ),
            ),
            AtomicAction(
                "press something after aligned",
                "gripper_close_first_cost() + move_cost('gripper', '<target object part>')",
                (),
            ),
            AtomicAction(
                "pull to open something after grasped",
                "move_cost('gripper', centroid_last('gripper') + "
                "direction_of(start='<part to pull away from>', end='gripper') * <offset distance>)",
                ("offset distance is in meters and should exceed 0.1",),
            ),
            AtomicAction(
                "push to close something after grasped",
                "gripper_open_cost()",
                ("opens the gripper and releases the grasped item",),
            ),
            AtomicAction(
                "release something only",
                "gripper_open_cost()",
                ("opens the gripper and releases the grasped item",),
            ),
        )
    )


# -- data files -------------------------------------------------------------------


def load_tasks(path=None) -> list[Task]:
    path = path or shipped_tasks_path()
    doc = read_json(path, FixtureError)
    try:
        return [
            Task(
                typed_value(t["task_id"], int, f"{path}: task_id", FixtureError),
                typed_value(t["title"], str, f"{path}: title", FixtureError),
                typed_value(t["instruction"], str, f"{path}: instruction", FixtureError),
            )
            for t in doc["tasks"]
        ]
    except (KeyError, TypeError) as exc:
        raise FixtureError(f"{path}: expected a tasks list of {{task_id, title, instruction}}") from exc


def load_mock_translations(path=None) -> dict[str, str]:
    path = path or DATA_ROOT / "mock_translations.json"
    doc = read_json(path, FixtureError)
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise FixtureError(f"{path}: expected an object of instruction -> program text")
    return doc


def build_part_database() -> PartDatabase:
    return load_database(shipped_part_database_path())


def shipped_part_database_path() -> Path:
    return DATA_ROOT / "part_database.json"


def shipped_profiles_dir() -> Path:
    return DATA_ROOT / "profiles"


def shipped_tasks_path() -> Path:
    return DATA_ROOT / "tasks_33.json"


def shipped_scene_path(kind: str) -> Path:
    return DATA_ROOT / "scenes" / f"{kind}.json"


def regen(out_dir, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the whole data tree, byte-stable for a given seed: the scenes
    generated from `seed`, every other shipped file copied as it is."""
    out = Path(out_dir)
    # A bad seed or an unreadable table writes nothing.
    scenes = {out / "scenes" / f"{kind}.json": make_scene(kind, seed) for kind in SCENE_KINDS}
    tables = {
        out / path.relative_to(DATA_ROOT): read_text(path, FixtureError)
        for path in sorted(DATA_ROOT.rglob("*"))
        if path.is_file() and path.relative_to(DATA_ROOT).parts[0] != "scenes"
    }
    try:
        for path in [*tables, *scenes]:
            path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FixtureError(f"cannot create {out}: {exc}") from exc
    for path, text in tables.items():
        write_text(path, text, FixtureError)
    for path, scene in scenes.items():
        write_json(path, scene_to_json(scene), FixtureError)
    return [*tables, *scenes]
