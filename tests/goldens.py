"""Golden outputs of the shipped mock loop, compared byte for byte by
tests/test_goldens.py.

Each golden is the text one deterministic run prints: the `TaskTrace.dumps()`
of each of the five shipped mock tasks on its shipped scene, and the stdout of
`maniplang solve` on the cube-move program on `cube_target` and on a 6-D
program, the lid upright on the teapot opening, on `teapot_lid`. Rewrite
them only with this script, never by hand, and list every golden that moved
(old and new values) in CHANGES.md:

    PYTHONPATH=src python tests/goldens.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
from pathlib import Path

from maniplang import cli, fixtures, pipeline
from maniplang.scene import load_scene

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# golden file stem -> (shipped scene, mock instruction)
MOCK_TASKS = {
    "cube_move": ("cube_target", "move the cube above the target"),
    "cube_lift": ("cube_target", "lift the cube and release it"),
    "pen": ("pen_holder", "put the pen into the penholder"),
    "carrot": ("carrot_knife", "cut the carrot with the knife"),
    "kraken": ("cube_target", fixtures.GARBAGE_INSTRUCTION),
}


def mock_trace(stem: str) -> str:
    kind, instruction = MOCK_TASKS[stem]
    client = pipeline.MockClient(fixtures.load_mock_translations())
    try:
        trace = pipeline.run_task(instruction, load_scene(fixtures.shipped_scene_path(kind)), client)
    except pipeline.TranslationFailedError as exc:
        trace = exc.trace
    return trace.dumps()


TEAPOT_LID_PROGRAM = (
    "upright_cost('lid', 'teapot')"
    " + move_cost(get_centroid('lid'), get_centroid('teapot opening'), offset=[0, 0, get_height('lid')])"
)

# golden file stem -> (shipped scene, program solved with the default config)
SOLVES = {
    "cube_move": ("cube_target", fixtures.load_mock_translations()["move the cube above the target"]),
    "teapot_lid": ("teapot_lid", TEAPOT_LID_PROGRAM),
}


def solve_stdout(stem: str) -> str:
    kind, program = SOLVES[stem]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--scene", str(fixtures.shipped_scene_path(kind)), "--expr", program])
    if code != 0:
        raise RuntimeError(f"maniplang solve exited {code}")
    return out.getvalue()


# golden file name -> producer of its text
GOLDENS = {
    **{f"{stem}.trace.json": functools.partial(mock_trace, stem) for stem in MOCK_TASKS},
    **{f"{stem}.solve.json": functools.partial(solve_stdout, stem) for stem in SOLVES},
}


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, produce in GOLDENS.items():
        (GOLDEN_DIR / name).write_text(produce(), encoding="utf-8", newline="")
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
