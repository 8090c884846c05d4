"""program_stream: the language front end and part retrieval, one program at a time.

One closed-loop client takes the next program from a seeded stream
(see ``programs.py``), runs ``validate_program`` on it and, when the
program is accepted and cost-sorted, one plain ``evaluate`` on its scene
with no solve. Part names go through ``retrieval.make_part_resolver``, so
paraphrased names are resolved by the part database.
"""

from __future__ import annotations

import math

from maniplang import EvalContext, ManiplangError, evaluate, fixtures, validate_program
from maniplang.geometry import PoseSE3, Point3, rotation_xyz
from maniplang.language import default_vocabulary
from maniplang.retrieval import load_database, make_part_resolver
from maniplang.scene import load_scene
from maniplang.solver import transform_scene

import harness
import programs

HISTORY_SUFFIX = "+moved"
# The gripper move that gives each shipped scene one history snapshot.
HISTORY_ROTATION = (0.0, 0.0, 0.3)
HISTORY_SHIFT = (0.05, -0.03, 0.1)


def load_inputs(seed: int) -> dict:
    scenes = {kind: load_scene(fixtures.shipped_scene_path(kind)) for kind in fixtures.SCENE_KINDS}
    for kind in fixtures.SCENE_KINDS:
        scene = scenes[kind]
        start = scene.gripper_position.as_array()
        pose = PoseSE3(rotation_xyz(*HISTORY_ROTATION), Point3.from_array(start + HISTORY_SHIFT))
        scenes[kind + HISTORY_SUFFIX] = transform_scene(scene, pose)
    db = load_database(fixtures.shipped_part_database_path())
    contexts = {
        key: EvalContext(scene, part_resolver=make_part_resolver(scene, db))
        for key, scene in scenes.items()
    }
    return {"scenes": scenes, "db": db, "contexts": contexts, "seed": seed}


def make_generator(inputs: dict) -> programs.ProgramGenerator:
    """A fresh stream from the workload seed; every phase of a run sees the same programs."""
    return programs.ProgramGenerator(
        programs.signatures_from_vocabulary(default_vocabulary()),
        {kind: tuple(inputs["scenes"][kind].parts) for kind in fixtures.SCENE_KINDS},
        {kind: kind + HISTORY_SUFFIX for kind in fixtures.SCENE_KINDS},
        [list(entry.key_phrases) for entry in inputs["db"].entries],
        inputs["seed"],
    )


def execute(program: programs.Program, contexts: dict, validate=validate_program, evaluate_fn=evaluate):
    """One operation: (accepted, sort, value, error)."""
    verdict = validate(program.source)
    if not verdict:
        return False, None, None, verdict.error
    sort = verdict.typed.sort
    if sort != "cost":
        return True, sort, None, None
    try:
        return True, sort, evaluate_fn(verdict.typed, contexts[program.scene]), None
    except ManiplangError as exc:
        return True, sort, None, exc


def check(program: programs.Program, outcome, contexts: dict, phase: harness.Phase) -> None:
    accepted, sort, value, error = outcome
    if not programs.outcome_matches(program, accepted, error, sort):
        phase.fail(
            f"{program.label} program {program.source!r}: accepted={accepted} sort={sort} "
            f"error={type(error).__name__ if error else None}: {error}"
        )
        return
    if value is None:
        return
    if not (math.isfinite(value) and value >= 0.0):
        phase.fail(f"value {value!r} of {program.source!r} is not finite and >= 0")
    if program.exact_source is not None:
        exact = evaluate(validate_program(program.exact_source).typed, contexts[program.scene])
        if exact != value:
            phase.fail(f"paraphrase value {value!r} != exact-name value {exact!r} for {program.source!r}")


def run(inputs: dict, seconds: float, min_cycles: int, tracer=None) -> harness.Phase:
    phase = harness.Phase()
    generator = make_generator(inputs)
    contexts = inputs["contexts"]
    validate, evaluate_fn = validate_program, evaluate
    if tracer is not None:
        validate = tracer.wrap(validate_program, "language.validate_program")
        evaluate_fn = tracer.wrap(evaluate, "costs.evaluate")
        contexts = {
            key: EvalContext(ctx.scene, part_resolver=tracer.wrap(ctx.part_resolver, "retrieval.resolve"))
            for key, ctx in contexts.items()
        }

    def cycle(index: int, phase: harness.Phase) -> None:
        program = next(generator)
        outcome = harness.timed_op(
            phase, program.label, lambda: execute(program, contexts, validate, evaluate_fn), tracer
        )
        if outcome is not None:
            check(program, outcome, inputs["contexts"], phase)

    return harness.closed_loop(cycle, seconds, min_cycles, phase)
