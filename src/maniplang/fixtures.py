"""Synthetic scenes and shipped data files consumed across the test suite.

Scene construction is deterministic given the seed and analytically exact
where a test needs a known optimum: after sampling, clouds are nudged (a
rigid rotation about their own centroid, a rigid shift) so the *measured*
principal axes and centroids satisfy the advertised relation to machine
precision: the knife-blade axis is exactly perpendicular to the
carrot axis at the known solved pose, and the pen axis sits exactly 30
degrees off the holder axis. Sampling noise therefore never leaks into
tolerances.

The data tree regenerates byte-identically via `maniplang fixtures regen
--out DIR`; the shipped copies under `maniplang/data` were produced by
exactly that code path. It holds `tasks_33.json` (the task corpus),
`part_database.json`, `mock_translations.json`, `profiles/<stem>.json` (one
representation profile per method, each task's verdict embedded) and
`scenes/<kind>.json` (one per `SCENE_KINDS` entry); the prompt template is
`default_prompt_template()`, in code only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ManiplangError
from .files import read_json, write_json
from .geometry import (
    Point3,
    PointCloud,
    PoseSE3,
    principal_axis,
    rotation_about_axis,
    rotation_xyz,
)
from .language.vocabulary import (
    Vocabulary,
    default_grammar,
    default_vocabulary,
    make_word,
    vocabulary_to_json,
)
from .retrieval import PartDatabase, PartEntry, database_to_json
from .scene import Scene, scene_to_json

DEFAULT_SEED = 7
POINTS_PER_PART = 1000

GARBAGE_INSTRUCTION = "summon the kraken"  # deliberately invalid mock program


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


# -- task corpus and judgment fixtures ----------------------------------------

_TASKS: tuple[tuple[str, str], ...] = (
    ("Sort the Red Cube", "Pick the red cube from a group and place it inside the red circle."),
    ("Bin the Blue Cylinder", "Pick the blue cylinder and drop it into the bin marked with a blue square."),
    ("Stack Cube on Cube", "Pick the green cube and stack it on top of the yellow cube."),
    ("Move the Soda Can", "Pick the soda can from the left table and place it on the right table."),
    ("Fill the Tray", "Pick the AA battery and place it into the empty slot in the plastic tray."),
    ("Insert the USB Drive", "Pick the USB drive from the table and insert it into the laptop's USB port."),
    ("Assemble the LEGO", "Pick the 2x4 LEGO brick and attach it to the red baseplate, connecting it to two other bricks."),
    ("Place the Ring", "Pick the wooden ring and place it onto the vertical post."),
    ("Put the Lid on the Jar", "Pick the plastic jar lid and place it on top of the jar."),
    ("Hang the Key", "Pick the key and hang it on the keyhook by its hole."),
    ("Push the Dice", "Push the white dice across the table until it crosses the black line."),
    ("Flip the Pancake", "Use the spatula to flip the pancake in the frying pan."),
    ("Close the Drawer", "Push the kitchen drawer closed using the flat of the gripper."),
    ("Press the Doorbell", "Press the round, lit doorbell button on the wall."),
    ("Align the Block", "Push the wooden block until it is flush against the corner of the table."),
    ("Scoop the Rice", "Use the metal spoon to scoop rice from the pot into the bowl."),
    ("Stir the Soup", "Use the spoon to stir the liquid in the pot three times clockwise."),
    ("Hammer the Nail", "Use the toy hammer to tap the nail until its head is flush with the board."),
    ("Screw in the Lightbulb", "Pick the lightbulb and screw it into the empty lamp socket."),
    ("Pour the Water", "Pick the pitcher and pour water into the empty glass until it is half-full."),
    ("Uncoil the Rope", "Manipulate the coiled rope until it forms a straight line from start to end."),
    ("Fold the Washcloth", "Fold the small, square washcloth in half."),
    ("Open the Bag", "Use two grippers to pull the handles of the plastic bag apart."),
    ("Drape the Towel", "Drape the hand towel over the horizontal bar."),
    ("Route the Cable", "Route the USB cable around the two posts in an S-shape."),
    ("Grasp the Marble", "Pick the glass marble from a flat surface."),
    ("Grasp the Coin", "Pick the single coin from the table."),
    ("Re-grip the Screwdriver", "Pick the screwdriver by its handle, then place it down and re-grip it by its shaft."),
    ("Pick the Book", "Pick the paperback book from the shelf by its spine."),
    ("Hook the Mug", "Hook a gripper finger through the handle of the coffee mug and lift it."),
    ("Place the T-Block", "Pick the T-shaped block and insert it into the matching T-shaped slot on the board."),
    ("Assemble the Stack", "Pick the large square block and place it on the table, then place the medium block on it, and finally the small block on top."),
    ("Plug in the Lamp", "Pick the power plug from the floor and insert it into the wall outlet."),
)

# One verdict code per task, in task order. Codes map to the judge's wording
# per method below; `metrics.judge_verdict` decides which wording is success.
_JUDGMENT_CODES = {
    "seam": "ccccccicccciccciiiiiiiccicccccccc",
    "omnimanip": "cccccppccccxcccxpxxpxxxcpcccccpcp",
    "instruct2act": "ccccccccccicicixciccccccicccccccc",
    "rekep": "sssssppsspssssspspsspssspssssspsp",
}

_VERDICT_TEXT = {
    "seam": {"c": "correct", "i": "insufficient"},
    "omnimanip": {
        "c": "correct and sufficient",
        "p": "partially correct but insufficient",
        "x": "incorrect and insufficient",
    },
    "instruct2act": {"c": "correct and sufficient", "i": "insufficient", "x": "incorrect"},
    "rekep": {"s": "success", "p": "partial success"},
}


def tasks() -> list[Task]:
    return [Task(i + 1, title, text) for i, (title, text) in enumerate(_TASKS)]


def judgments(method: str) -> list[dict]:
    codes = _JUDGMENT_CODES[method]
    text = _VERDICT_TEXT[method]
    return [{"task_id": i + 1, "verdict": text[code]} for i, code in enumerate(codes)]


# -- representation profiles ---------------------------------------------------

_CORE_TABLE_WORDS = (
    "get_axis",
    "get_centroid",
    "get_height",
    "move_cost",
    "parallel_cost",
    "get_gripper_pos",
    "perpendicular_cost",
    "rotate_cost",
    "orbit_cost",
    "gripper_close",
    "gripper_open",
)


def _core_vocabulary() -> Vocabulary:
    """The 11-word core table, borrowing the full vocabulary's signatures."""
    full = {w.name: w for w in default_vocabulary().words}
    return Vocabulary([full[name] for name in _CORE_TABLE_WORDS])


def _rekep_vocabulary() -> Vocabulary:
    s, p = "string", "point"
    return Vocabulary(
        [
            make_word("get_keypoint", [("part", s)], p),
            make_word("gripper_close", [], "void"),
            make_word("gripper_open", [], "void"),
            make_word("move_to", [("target", p)], "void"),
            make_word("get_gripper_pos", [], p),
            make_word("get_gripper_pose", [], "vec"),
        ],
        has_host_escape=True,
    )


def _omnimanip_vocabulary() -> Vocabulary:
    s, p = "string", "point"
    return Vocabulary(
        [
            make_word("gripper_close", [], "void"),
            make_word("gripper_open", [], "void"),
            make_word("move_to", [("target", p)], "void"),
            make_word("get_gripper_pos", [], p),
            make_word("get_gripper_pose", [], "vec"),
            make_word("get_keypoint", [("part", s)], p),
            make_word("get_axis", [("part", s)], "vec"),
        ]
    )


def _instruct2act_vocabulary() -> Vocabulary:
    s = "string"
    unary = [
        "pick",
        "place",
        "pick_place",
        "push",
        "press",
        "flip",
        "tap",
    ]
    binary = [
        "insert",
        "move_parallel",
        "move_perpendicular",
        "scoop",
        "stir",
        "screw_rotation",
        "controlled_pour",
        "route_around",
        "pull_apart",
        "fold",
        "straighten",
    ]
    words = [
        make_word("gripper_close", [], "void"),
        make_word("gripper_open", [], "void"),
        make_word("get_gripper_pos", [], "point"),
        make_word("get_gripper_pose", [], "vec"),
        make_word("find", [("part", s)], "point"),
        make_word("move_above", [("part", s), ("target", s), ("offset", "scalar")], "void"),
    ]
    words += [make_word(name, [("part", s)], "void") for name in unary]
    words += [make_word(name, [("first", s), ("second", s)], "void") for name in binary]
    return Vocabulary(words, has_host_escape=True)


def build_profiles() -> dict[str, dict]:
    """Profile documents keyed by file stem; judgment corpus embedded."""
    table = (  # (stem, vocabulary, grammar rules, judged method, grammar notes)
        ("seam", default_vocabulary(), default_grammar(), "seam", ()),
        ("seam_core", _core_vocabulary(), default_grammar(), "seam", ()),
        ("rekep", _rekep_vocabulary(), (), "rekep", (
            "cost -> cost + cost",
            "cost -> cost_fns, kpts",
            "kpts -> kpts, keypoint",
            "kpts -> get_keypoint",
            "kpts -> get_end_effector",
            "plus the host-language grammar",
        )),
        ("omnimanip", _omnimanip_vocabulary(), (), "omnimanip", (
            "cost -> cost + cost",
            "cost -> angular constraint, p, p",
            "start -> distance constraint, p, p",
            "p -> get_keypoint",
            "p -> get_axis",
        )),
        ("instruct2act", _instruct2act_vocabulary(), (), "instruct2act", (
            "action -> action + action",
            "action -> verb, segment",
            "segment -> find, object",
            "plus the host-language grammar",
        )),
    )
    profiles = {}
    for stem, vocab, rules, method, notes in table:
        doc = vocabulary_to_json(vocab, rules)
        doc["name"] = stem
        doc["task_outcomes"] = judgments(method)
        if notes:
            doc["grammar_notes"] = list(notes)
        profiles[stem] = doc
    return profiles


# -- part database --------------------------------------------------------------


def build_part_database() -> PartDatabase:
    return PartDatabase(
        entries=tuple(
            PartEntry(phrases)
            for phrases in (
                ("cup opening", "cup rim", "cup edge"),
                ("teapot opening", "teapot top rim"),
                ("teapot spout", "teapot nozzle"),
                ("pen cap", "cap of the pen"),
                ("drawer handle", "drawer pull"),
                ("button", "push button", "doorbell button"),
                ("microwave hinge", "microwave door hinge"),
                ("flower stem", "plant stem"),
                ("bowl rim", "bowl edge"),
                ("knife blade", "blade of the knife"),
            )
        )
    )


# -- mock translations -----------------------------------------------------------


def build_mock_translations() -> dict[str, str]:
    """Instruction -> candidate program text (stages separated by ---).

    Every entry validates against the grammar except the one keyed by
    GARBAGE_INSTRUCTION, which exists to exercise the reject/reprompt path.
    """
    return {
        "put the pen into the penholder": (
            "parallel_cost(get_axis('pen'), get_axis('pen holder')) + "
            "move_cost(get_centroid('pen'), get_centroid('pen holder'), offset=[0, 0, 0.12])"
        ),
        "cut the carrot with the knife": (
            "perpendicular_cost(get_axis('carrot'), get_axis('knife blade')) + "
            "move_cost(get_centroid('knife'), get_centroid('knife blade'), offset=[0, 0, 0.1])"
        ),
        "move the cube above the target": (
            "move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])"
        ),
        "lift the cube and release it": (
            "move_cost_with_offset('cube', offset=[0, 0, get_height('cube') + 0.1])\n"
            "---\n"
            "gripper_open()"
        ),
        GARBAGE_INSTRUCTION: "fly_to('moon')",
    }


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


_DATA = Path(__file__).with_name("data")


def load_tasks(path=None) -> list[Task]:
    path = path or shipped_tasks_path()
    doc = read_json(path, FixtureError)
    try:
        return [Task(t["task_id"], t["title"], t["instruction"]) for t in doc["tasks"]]
    except (KeyError, TypeError) as exc:
        raise FixtureError(f"{path}: expected a tasks list of {{task_id, title, instruction}}") from exc


def load_mock_translations(path=None) -> dict[str, str]:
    path = path or _DATA / "mock_translations.json"
    doc = read_json(path, FixtureError)
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise FixtureError(f"{path}: expected an object of instruction -> program text")
    return doc


def shipped_part_database_path() -> Path:
    return _DATA / "part_database.json"


def shipped_profiles_dir() -> Path:
    return _DATA / "profiles"


def shipped_tasks_path() -> Path:
    return _DATA / "tasks_33.json"


def shipped_scene_path(kind: str) -> Path:
    return _DATA / "scenes" / f"{kind}.json"


def regen(out_dir, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the whole fixture tree; byte-stable for a given seed."""
    scenes = {kind: make_scene(kind, seed) for kind in SCENE_KINDS}  # a bad seed writes nothing
    out = Path(out_dir)
    try:
        (out / "profiles").mkdir(parents=True, exist_ok=True)
        (out / "scenes").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FixtureError(f"cannot create {out}: {exc}") from exc
    written: list[Path] = []

    def emit(relative: str, doc) -> None:
        path = out / relative
        write_json(path, doc, FixtureError)
        written.append(path)

    emit("tasks_33.json", {"tasks": [
        {"task_id": t.task_id, "title": t.title, "instruction": t.instruction} for t in tasks()
    ]})
    emit("part_database.json", database_to_json(build_part_database()))
    emit("mock_translations.json", build_mock_translations())
    for stem, doc in build_profiles().items():
        emit(f"profiles/{stem}.json", doc)
    for kind, scene in scenes.items():
        emit(f"scenes/{kind}.json", scene_to_json(scene))
    return written
