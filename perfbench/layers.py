"""Per-layer measurements reported by a traced run, the same on every workload.

Each figure is taken on fixed inputs (shipped fixtures, or draws from the
workload seed), so a figure means the same thing whichever workload's
traced run printed it. The workload's own spans add the self-time shares.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from maniplang import EvalContext, evaluate, fixtures, metrics, pipeline, solver, validate_program
from maniplang.geometry import PoseSE3, Point3, euler_from_rotation, principal_axis, rotation_xyz, transform_cloud
from maniplang.language import parse, tokenize, type_check
from maniplang.retrieval import retrieve
from maniplang.scene import load_scene, save_scene

import cold_cli
import harness
import mock_tasks
import program_stream
import tracing

STREAM_SAMPLE = 400  # programs drawn for the language and retrieval figures
CALLS = 200  # calls per micro timing


def _median_us(fns) -> float:
    """Median over inputs of each input's single-call time, in microseconds;
    each call is timed after a warm-up call on the same input."""
    samples = []
    for fn in fns:
        fn()
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / 1e3


def per_call_us(fn, calls: int = CALLS) -> float:
    """Median wall time of one call to `fn`, in microseconds."""
    return _median_us([fn] * calls)


def _random_poses(rng, scene, count):
    start = scene.gripper_position.as_array()
    return [
        PoseSE3(rotation_xyz(*rng.uniform(-0.3, 0.3, 3)), Point3.from_array(start + rng.uniform(-0.1, 0.1, 3)))
        for _ in range(count)
    ]


def solver_and_pipeline(seed: int, out: dict) -> None:
    """One run_task per mock task, traced only at pipeline boundaries, with
    costs.evaluate calls counted; then solver.objective at seeded poses."""
    inputs = mock_tasks.load_inputs(seed)
    rng = np.random.default_rng(seed)
    objective_sum = 0.0
    for name, kind, instruction in mock_tasks.TASKS:
        tracer = tracing.Tracer()
        traced_client, run_task = mock_tasks.traced_entry_points(inputs, tracer)
        with tracer.patched(tracing.COARSE_PATCH_POINTS, counted=(("maniplang.solver", "evaluate", "costs.evaluate"),)):
            with tracer.operation(0):
                trace = mock_tasks.run_one(name, inputs, traced_client, run_task)
        own = tracing.self_times(tracer.start, tracer.end, tracer.parent)
        pipeline_self = sum(v for i, v in enumerate(own) if tracing.layer_of(tracer.names[tracer.name_id[i]]) == "pipeline")
        out[f"pipeline.self_ms.{name}"] = (pipeline_self / 1e6, "ms", "lower")
        out[f"pipeline.attempts.{name}"] = (len(trace.attempts), "count", "lower")
        if name == "kraken":
            continue
        solve_ns = sum(
            tracer.end[i] - tracer.start[i]
            for i in range(len(tracer))
            if tracer.names[tracer.name_id[i]] == "solver.solve"
        )
        results = [s.solve for s in trace.stages if s.solve is not None]
        evals = sum(r.total_evaluations for r in results)
        objective_sum += sum(r.objective for r in results)
        out[f"solver.evals.{name}"] = (evals, "count", "lower")
        out[f"solver.best_restart_evals.{name}"] = (sum(r.iterations for r in results), "count", "lower")
        out[f"solver.solve_s.{name}"] = (solve_ns / 1e9, "s", "lower")
        out[f"solver.us_per_eval.{name}"] = (solve_ns / 1e3 / evals, "us", "lower")
        out[f"solver.converged.{name}"] = (float(all(r.converged for r in results)), "ratio", "higher")
        out[f"costs.evaluate_calls.{name}"] = (tracer.counts["costs.evaluate"], "count", "lower")
        # solver.objective at seeded poses around the start, on the first solve stage.
        translations = fixtures.load_mock_translations()
        stage = pipeline.split_stages(translations[instruction])[0]
        typed = validate_program(stage).typed
        scene = inputs["scenes"][kind]
        cfg = inputs["cfg"].solve
        poses = _random_poses(rng, scene, CALLS)
        out[f"costs.objective_us.{name}"] = (
            _median_us([lambda p=p: solver.objective(typed, scene, p, cfg) for p in poses]), "us", "lower",
        )
    out["solver.objective_sum"] = (objective_sum, "1", "lower")


def geometry_scene_costs(seed: int, tmp: Path, out: dict) -> None:
    rng = np.random.default_rng(seed)
    scene = load_scene(fixtures.shipped_scene_path("carrot_knife"))
    cloud = scene.parts["carrot"]
    poses = _random_poses(rng, scene, 2)
    rotations = [rotation_xyz(*rng.uniform(-1.5, 1.5, 3)) for _ in range(CALLS)]
    out["geometry.principal_axis_us"] = (per_call_us(lambda: principal_axis(cloud)), "us", "lower")
    out["geometry.transform_cloud_us"] = (per_call_us(lambda: transform_cloud(cloud, poses[0], poses[1])), "us", "lower")
    out["geometry.euler_us"] = (_median_us([lambda r=r: euler_from_rotation(r) for r in rotations]), "us", "lower")
    out["scene.transform_scene_us"] = (per_call_us(lambda: solver.transform_scene(scene, poses[1])), "us", "lower")
    carrot = fixtures.load_mock_translations()["cut the carrot with the knife"]
    typed = validate_program(carrot).typed
    ctx = EvalContext(scene)
    out["costs.evaluate_us"] = (per_call_us(lambda: evaluate(typed, ctx)), "us", "lower")
    for kind in fixtures.SCENE_KINDS:
        path = fixtures.shipped_scene_path(kind)
        out[f"scene.load_ms.{kind}"] = (per_call_us(lambda: load_scene(path), 5) / 1e3, "ms", "lower")
    target = tmp / "saved_scene.json"
    out["scene.save_ms"] = (per_call_us(lambda: save_scene(target, scene), 5) / 1e3, "ms", "lower")


def language_retrieval(seed: int, out: dict) -> None:
    """Figures over a sample of the program stream drawn from the workload seed."""
    inputs = program_stream.load_inputs(seed)
    generator = program_stream.make_generator(inputs)
    sample = [generator.next_program() for _ in range(STREAM_SAMPLE)]
    valid = [p.source for p in sample if p.sort == "cost"]
    exprs = [parse(text) for text in valid]
    out["language.tokenize_us"] = (_median_us([lambda t=t: tokenize(t) for t in valid]), "us", "lower")
    out["language.parse_us"] = (_median_us([lambda t=t: parse(t) for t in valid]), "us", "lower")
    out["language.typecheck_us"] = (_median_us([lambda e=e: type_check(e) for e in exprs]), "us", "lower")
    out["language.validate_us"] = (_median_us([lambda p=p: validate_program(p.source) for p in sample]), "us", "lower")
    out["language.accept_ratio"] = (sum(bool(validate_program(p.source)) for p in sample) / len(sample), "ratio", "higher")

    phrases = [p for entry in inputs["db"].entries for p in entry.key_phrases]
    out["retrieval.retrieve_us"] = (_median_us([lambda q=q: retrieve(inputs["db"], q) for q in phrases]), "us", "lower")

    tracer = tracing.Tracer()
    contexts = {
        key: EvalContext(ctx.scene, part_resolver=tracer.wrap(ctx.part_resolver, "retrieval.resolve"))
        for key, ctx in inputs["contexts"].items()
    }
    hits = paraphrased = 0
    for program in sample:
        _, _, value, _ = program_stream.execute(program, contexts)
        if program.exact_source is not None and value is not None:
            paraphrased += 1
            exact = evaluate(validate_program(program.exact_source).typed, inputs["contexts"][program.scene])
            hits += exact == value
    out["retrieval.resolve_calls"] = (len(tracer), "count", "lower")
    out["retrieval.paraphrase_hit_ratio"] = (hits / paraphrased, "ratio", "higher")
    # Resolver calls that go through the part database: one per paraphrase of a scene part.
    calls = [
        (lambda r=inputs["contexts"][scene].part_resolver, q=phrase: r(q))
        for scene, table in generator.paraphrases.items()
        for phrase_list in table.values()
        for phrase in phrase_list
    ]
    out["retrieval.resolve_us"] = (_median_us(calls), "us", "lower")


def metrics_fixtures(tmp: Path, out: dict) -> None:
    def compute():
        profiles = metrics.load_profiles(fixtures.shipped_profiles_dir())
        tasks = json.loads(fixtures.shipped_tasks_path().read_text(encoding="utf-8"))["tasks"]
        rows = metrics.compute_rows(profiles, len(tasks))
        return metrics.rows_to_csv(rows), metrics.rows_to_svg(rows)

    out["metrics.compute_ms"] = (per_call_us(compute, 5) / 1e3, "ms", "lower")
    regen_dir = tmp / "regen-layer"
    out["fixtures.regen_ms"] = (per_call_us(lambda: fixtures.regen(regen_dir), 3) / 1e3, "ms", "lower")
    shutil.rmtree(regen_dir, ignore_errors=True)


def cli(seed: int, tmp: Path, out: dict) -> harness.Phase:
    """One cold_cli session, run, checked and calibrated as in the workload:
    one cold process per command. Returns the phase of the commands."""
    out["cli.import_s"] = (harness.median_setup_s(["-c", "import maniplang.cli"], 3)[0], "s", "lower")
    _, commands, _ = cold_cli.run(cold_cli.load_inputs(seed, tmp), seconds=0, min_cycles=1)
    for command, seconds in zip(commands.kinds, commands.normalized):
        out[f"cli.{command}_s"] = (seconds, "s", "lower")
    return commands


def measure(seed: int, tmp: Path) -> tuple[dict, harness.Phase]:
    """name -> (value, unit, better) for every workload-independent layer
    figure, and the checked CLI commands run to take them."""
    out: dict = {}
    solver_and_pipeline(seed, out)
    geometry_scene_costs(seed, tmp, out)
    language_retrieval(seed, out)
    metrics_fixtures(tmp, out)
    phase = cli(seed, tmp, out)
    out["code.src_lines"] = (harness.src_lines(), "lines", "lower")
    return out, phase
