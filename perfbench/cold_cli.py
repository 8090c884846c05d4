"""cold_cli: fresh ``python -m maniplang`` processes, one after another.

A cycle runs the six commands once each, in an order drawn from the
workload seed: parse, eval, retrieve, metrics, fixtures regen and solve
(the cube move, default options). Inputs of parse, eval and retrieve are
drawn from the seed too. Every command pays for the interpreter, the
import, the CLI set-up and its own file reading; nothing is amortised.
"""

from __future__ import annotations

import filecmp
import json
import random
import shutil
from pathlib import Path

from maniplang import EvalContext, evaluate, fixtures, metrics, validate_program
from maniplang.retrieval import load_database, retrieve

import harness
import program_stream
import programs

COMMANDS = ("parse", "eval", "retrieve", "metrics", "regen", "solve")
CUBE_MOVE = "move the cube above the target"
CUBE_TOLERANCE_M = 1e-3
SUCCESS_THRESHOLD = 1e-2  # PipelineConfig's default
EXIT_OK, EXIT_INVALID = 0, 2


def load_inputs(seed: int, tmp: Path) -> dict:
    stream = program_stream.load_inputs(seed)
    return {
        "rng": random.Random(seed),
        "generator": program_stream.make_generator(stream),
        "scenes": stream["scenes"],
        "db": load_database(fixtures.shipped_part_database_path()),
        "tmp": tmp,
        "data": fixtures.shipped_scene_path("cube_target").parent.parent,
        "expected": {},
    }


def command_argv(command: str, inputs: dict, index: int) -> tuple[list[str], int, dict]:
    """argv after `-m maniplang`, the expected exit code, and what the check needs."""
    rng, gen, tmp = inputs["rng"], inputs["generator"], inputs["tmp"]
    if command == "parse":
        program = gen.next_program()
        path = tmp / f"program-{index}.txt"
        path.write_text(program.source, encoding="utf-8")
        expected = EXIT_OK if program.verdict == "accepted" else EXIT_INVALID
        return ["parse", str(path)], expected, {}
    if command == "eval":
        # A cost program on a shipped scene: the CLI has no part resolver and
        # shipped scenes have no history, so exact names and no history words.
        while True:
            program = gen.next_program(labels=(programs.VALID,))
            if program.sort == "cost" and program.scene in fixtures.SCENE_KINDS:
                break
        text = program.exact_source or program.source
        scene = str(fixtures.shipped_scene_path(program.scene))
        return ["eval", "--scene", scene, "--expr", text], EXIT_OK, {"text": text, "scene": program.scene}
    if command == "retrieve":
        phrase = rng.choice([p for entry in inputs["db"].entries for p in entry.key_phrases])
        if rng.random() < 0.5:
            i = rng.randrange(len(phrase))
            phrase = phrase[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + phrase[i + 1 :]
        db = str(fixtures.shipped_part_database_path())
        return ["retrieve", "--db", db, "--desc", phrase], EXIT_OK, {"desc": phrase}
    if command == "metrics":
        csv, svg = tmp / f"metrics-{index}.csv", tmp / f"metrics-{index}.svg"
        return [
            "metrics", "--profiles", str(fixtures.shipped_profiles_dir()),
            "--tasks", str(fixtures.shipped_tasks_path()), "--csv", str(csv), "--svg", str(svg),
        ], EXIT_OK, {"csv": csv, "svg": svg}
    if command == "regen":
        out = tmp / f"regen-{index}"
        return ["fixtures", "regen", "--out", str(out)], EXIT_OK, {"out": out}
    program = fixtures.load_mock_translations()[CUBE_MOVE]
    scene = str(fixtures.shipped_scene_path("cube_target"))
    return ["solve", "--scene", scene, "--expr", program], EXIT_OK, {}


def _expected_metrics(inputs: dict) -> tuple[str, str]:
    if "metrics" not in inputs["expected"]:
        profiles = metrics.load_profiles(fixtures.shipped_profiles_dir())
        tasks = json.loads(fixtures.shipped_tasks_path().read_text(encoding="utf-8"))["tasks"]
        rows = metrics.compute_rows(profiles, len(tasks))
        inputs["expected"]["metrics"] = (metrics.rows_to_csv(rows), metrics.rows_to_svg(rows))
    return inputs["expected"]["metrics"]


def _same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    return files_a == files_b and all(filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def check(command: str, proc, expected_exit: int, info: dict, inputs: dict, phase: harness.Phase, solve_objectives: list) -> None:
    if proc.returncode != expected_exit:
        phase.fail(f"{command}: exit {proc.returncode}, expected {expected_exit}\n{proc.stderr[-500:]}")
        return
    out = proc.stdout
    if command == "parse" and expected_exit == EXIT_OK and not out.startswith("accepted: sort="):
        phase.fail(f"parse: unexpected output {out[:200]!r}")
    elif command == "eval":
        typed = validate_program(info["text"]).typed
        value = evaluate(typed, EvalContext(inputs["scenes"][info["scene"]]))
        if out.strip() != f"{value:.9f}":
            phase.fail(f"eval: printed {out.strip()!r}, in-process value {value:.9f}")
    elif command == "retrieve":
        match = retrieve(inputs["db"], info["desc"])
        want = {"entry_index": match.entry_index, "matched_phrase": match.matched_phrase, "distance": match.distance}
        if json.loads(out) != want:
            phase.fail(f"retrieve: printed {out.strip()!r}, in-process {want}")
    elif command == "metrics":
        csv, svg = _expected_metrics(inputs)
        if out != csv or info["csv"].read_text(encoding="utf-8") != csv or info["svg"].read_text(encoding="utf-8") != svg:
            phase.fail("metrics: CSV/SVG differ from the in-process rows")
    elif command == "regen":
        if not _same_tree(info["out"], inputs["data"]):
            phase.fail("regen: tree differs from the shipped data directory")
        shutil.rmtree(info["out"], ignore_errors=True)
    elif command == "solve":
        doc = json.loads(out)
        if "known_cube" not in inputs["expected"]:
            inputs["expected"]["known_cube"] = fixtures.known_solution("cube_target").translation.as_array()
        landed = doc["pose"]["translation"]
        error = sum((a - b) ** 2 for a, b in zip(landed, inputs["expected"]["known_cube"])) ** 0.5
        if error > CUBE_TOLERANCE_M or not doc["cost_term"] < SUCCESS_THRESHOLD:
            phase.fail(f"solve: landed {error:.3g} m from the known solution, cost {doc['cost_term']}")
        solve_objectives.append(doc["objective"])


def run(inputs: dict, seconds: float, min_cycles: int, tracer=None) -> tuple[harness.Phase, harness.Phase, list[float]]:
    """(sessions, commands, solve objectives).

    Each command is timed and calibrated on its own; the operation the
    end-to-end figures count is a session, one cycle of the six commands.
    The six commands' times form six separate clusters, so a median or tail
    over single commands would flip between clusters from run to run.
    """
    commands = harness.Phase()
    solve_objectives: list[float] = []
    bounds: list[tuple[int, int, int, int]] = []  # per cycle: first/end op, failures before/after
    spawn = {
        c: (tracer.wrap(harness.run_child, f"cli.{c}") if tracer is not None else harness.run_child)
        for c in COMMANDS
    }

    def cycle(index: int, phase: harness.Phase) -> None:
        first, failures = len(phase.op_spans), len(phase.failures)
        for command in inputs["rng"].sample(COMMANDS, len(COMMANDS)):
            argv, expected_exit, info = command_argv(command, inputs, index)
            result = harness.timed_op(
                phase, command, lambda: spawn[command](["-m", "maniplang", *argv], phase), tracer, in_process=False
            )
            if result is not None:
                check(command, result[0], expected_exit, info, inputs, phase, solve_objectives)
        bounds.append((first, len(phase.op_spans), failures, len(phase.failures)))

    harness.closed_loop(cycle, seconds, min_cycles, commands)
    sessions = harness.Phase(attempted=len(bounds))
    normalized = commands.normalized
    for session, (first, end, failures_before, failures_after) in enumerate(bounds, start=1):
        if failures_after > failures_before or end - first != len(COMMANDS):
            sessions.fail(f"session {session}: {failures_after - failures_before} failed checks", session)
            continue
        raw = sum(commands.latencies[first:end])
        sessions.latencies.append(raw)
        sessions.slowdown.append(raw / sum(normalized[first:end]))
        sessions.kinds.append("session")
    return sessions, commands, solve_objectives
