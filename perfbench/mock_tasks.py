"""mock_tasks: the paper's loop as users run it.

One closed-loop client calls ``pipeline.run_task`` on the shipped mock
translations and shipped scenes, at the shipped fixture seed with the
default ``PipelineConfig``. A cycle runs the five tasks once each, in an
order drawn from the workload seed; the inputs themselves are fixed.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from maniplang import fixtures, pipeline
from maniplang.scene import load_scene

import harness

# name, scene fixture, instruction
TASKS = (
    ("cube_move", "cube_target", "move the cube above the target"),
    ("cube_lift", "cube_target", "lift the cube and release it"),
    ("pen", "pen_holder", "put the pen into the penholder"),
    ("carrot", "carrot_knife", "cut the carrot with the knife"),
    ("kraken", "cube_target", fixtures.GARBAGE_INSTRUCTION),
)
EXPECTED_SUCCESS = {"cube_move": True, "cube_lift": True, "pen": True, "carrot": True, "kraken": False}
KRAKEN_ATTEMPTS = 3
CUBE_TOLERANCE_M = 1e-3


def load_inputs(seed: int) -> dict:
    translations = fixtures.load_mock_translations()
    missing = [instr for _, _, instr in TASKS if instr not in translations]
    if missing:
        raise RuntimeError(f"shipped mock translations lack {missing}")
    kinds = sorted({kind for _, kind, _ in TASKS})
    return {
        "scenes": {kind: load_scene(fixtures.shipped_scene_path(kind)) for kind in kinds},
        "client": pipeline.MockClient(translations),
        "cfg": pipeline.PipelineConfig(),
        "rng": random.Random(seed),
    }


def run_one(name: str, inputs: dict, client=None, run_task=pipeline.run_task):
    """One run_task; the designed rejection comes back as its trace."""
    _, kind, instruction = next(t for t in TASKS if t[0] == name)
    try:
        return run_task(instruction, inputs["scenes"][kind], client or inputs["client"], inputs["cfg"])
    except pipeline.TranslationFailedError as exc:
        return exc.trace


class Checker:
    """Output checks; traces of one task must match byte for byte across
    every repeat in the run, traced or not."""

    def __init__(self, inputs: dict):
        self.cfg = inputs["cfg"]
        self.first_dump: dict[str, str] = {}
        self.known_cube = None
        self.objective: dict[str, float] = {}

    def check(self, name: str, trace, phase: harness.Phase) -> None:
        if trace.success != EXPECTED_SUCCESS[name]:
            phase.fail(f"{name}: success={trace.success}, expected {EXPECTED_SUCCESS[name]}")
        if name == "kraken":
            rejected = [a for a in trace.attempts if not a.accepted]
            if len(trace.attempts) != KRAKEN_ATTEMPTS or len(rejected) != KRAKEN_ATTEMPTS or trace.stages:
                phase.fail(f"kraken: {len(trace.attempts)} attempts, {len(trace.stages)} stages")
        for stage in trace.stages:
            if stage.kind == "solve" and not stage.residual < self.cfg.success_threshold:
                phase.fail(f"{name}: residual {stage.residual} >= {self.cfg.success_threshold}")
        if name == "cube_move":
            if self.known_cube is None:
                self.known_cube = fixtures.known_solution("cube_target").translation.as_array()
            landed = trace.stages[0].solve.pose.translation.as_array()
            error = float(((landed - self.known_cube) ** 2).sum() ** 0.5)
            if error > CUBE_TOLERANCE_M:
                phase.fail(f"cube_move: landed {error:.3g} m from the known solution")
        dump = trace.dumps()
        first = self.first_dump.setdefault(name, dump)
        if dump != first:
            phase.fail(f"{name}: trace differs from the first run of this task")
        self.objective[name] = sum(s.solve.objective for s in trace.stages if s.solve is not None)


def traced_entry_points(inputs: dict, tracer):
    """run_task and the TranslationClient hook, each recorded as a span."""
    client = SimpleNamespace(translate=tracer.wrap(inputs["client"].translate, "pipeline.translate"))
    return client, tracer.wrap(pipeline.run_task, "pipeline.run_task")


def run(inputs: dict, seconds: float, min_cycles: int, checker: Checker, tracer=None) -> harness.Phase:
    phase = harness.Phase()
    rng = inputs["rng"]
    names = [name for name, _, _ in TASKS]
    client, run_task = inputs["client"], pipeline.run_task
    if tracer is not None:
        client, run_task = traced_entry_points(inputs, tracer)

    def cycle(index: int, phase: harness.Phase) -> None:
        for name in rng.sample(names, len(names)):
            trace = harness.timed_op(
                phase, name, lambda: run_one(name, inputs, client, run_task), tracer
            )
            if trace is not None:
                checker.check(name, trace, phase)

    return harness.closed_loop(cycle, seconds, min_cycles, phase)
