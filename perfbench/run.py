"""maniplang benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload mock_tasks --seed 1 --seconds 15 --trace 0

Workloads: mock_tasks, program_stream, cold_cli (see perfbench/README.md).
With --trace 0 the run measures the workload untraced and reports the
end-to-end metrics. With --trace 1 it measures the workload untraced, then
as long again with spans around every layer boundary, and reports the per-layer
metrics and the tracing overhead. Either way the outputs are checked, and
the last line printed is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (needs the path above)

WORKLOADS = ("mock_tasks", "program_stream", "cold_cli")
SETUP_REPEATS = 5
LAYERS = ("bench", "language", "geometry", "scene", "costs", "solver", "retrieval",
          "pipeline", "metrics", "fixtures", "cli")
# Whole cycles per measured window, at least: mock_tasks repeats each task
# three times (the determinism check needs two; the median of three is
# steadier), program_stream runs 10,000 programs, so that its tail is always
# the 99.9th percentile, and cold_cli runs six sessions.
MIN_CYCLES = {"mock_tasks": 3, "program_stream": 10_000, "cold_cli": 6}


def _setup_s(workload: str, seed: int) -> tuple[float, float]:
    if workload == "cold_cli":
        return harness.median_setup_s(["-c", "import maniplang.cli"], SETUP_REPEATS)
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    return harness.median_setup_s([probe, workload, str(seed)], SETUP_REPEATS)


def _load(workload: str, seed: int, tmp: Path):
    """run(seconds, min_cycles, tracer) -> (phase the metrics count, phase of
    single operations, reported extras)."""
    if workload == "mock_tasks":
        import mock_tasks

        inputs = mock_tasks.load_inputs(seed)
        checker = mock_tasks.Checker(inputs)

        def run(seconds, cycles, tracer=None):
            phase = mock_tasks.run(inputs, seconds, cycles, checker, tracer)
            return phase, phase, {"objective_sum": (sum(checker.objective.values()), "1", "lower")}

        return run
    if workload == "program_stream":
        import program_stream

        inputs = program_stream.load_inputs(seed)

        def run(seconds, cycles, tracer=None):
            phase = program_stream.run(inputs, seconds, cycles, tracer)
            return phase, phase, {}

        return run
    import cold_cli

    inputs = cold_cli.load_inputs(seed, tmp)

    def run(seconds, cycles, tracer=None):
        sessions, commands, objectives = cold_cli.run(inputs, seconds, cycles, tracer)
        pairs = list(zip(commands.normalized, commands.kinds))
        extra = {
            "cold_solve_s": (statistics.median(t for t, kind in pairs if kind == "solve"), "s", "lower"),
            "cold_start_s": (statistics.median(t for t, kind in pairs if kind != "solve"), "s", "lower"),
            "objective_sum": (statistics.median(objectives), "1", "lower"),
        }
        return sessions, commands, extra

    return run


def end_to_end(workload: str, seed: int, seconds: float, run):
    """(gated metrics, reported figures, phases counted, phases whose failures are printed)."""
    phase, ops, extra = run(seconds, MIN_CYCLES[workload])
    setup, setup_raw = _setup_s(workload, seed)
    times = phase.normalized
    value, percentile, beyond = harness.tail(times)
    gated = {
        "setup_s": (setup, "s", "lower"),
        "ops_per_s": (phase.rate(times), "1/s", "higher"),
        "latency_p50_s": (statistics.median(times), "s", "lower"),
        "latency_tail_s": (value, "s", "lower"),
        "peak_rss_mb": (ops.peak_child_rss_mb if workload == "cold_cli" else ops.peak_rss_mb, "MB", "lower"),
    }
    report = {
        "latency_tail": {"percentile": percentile, "samples_beyond": beyond, "samples": len(times)},
        "error_ratio": (len(phase.failed_ops) / phase.attempted, "1", "lower"),
        **extra,
        "machine_slowdown": (statistics.median(phase.slowdown), "1", "lower"),
        "raw.setup_s": (setup_raw, "s", "lower"),
        "raw.ops_per_s": (phase.rate(phase.latencies), "1/s", "higher"),
        "raw.latency_p50_s": (statistics.median(phase.latencies), "s", "lower"),
        "raw.latency_tail_s": (harness.tail(phase.latencies)[0], "s", "lower"),
    }
    return gated, report, [phase], [ops]


def per_layer(workload: str, seed: int, seconds: float, tmp: Path, run):
    """(metrics, phases counted, phases whose failures are printed)."""
    import layers
    import tracing

    _, untraced, _ = run(seconds, 1)
    tracer = tracing.Tracer()
    with tracer.patched():
        _, traced, _ = run(seconds, 1, tracer)
    tracer.add_slices((start, end) for start, end, _ in traced.refs)
    tracer.save(harness.OUT / f"spans-{workload}.npz")  # the latest traced run of each workload

    per_layer_ns, covered_ns = tracing.layer_self_ns(tracer)
    wall_ns = sum(traced.latencies) * 1e9
    out = {
        f"self_share.{layer}": (per_layer_ns.get(layer, 0) / wall_ns, "ratio", "lower") for layer in LAYERS
    }
    # How much of each operation's wall time the spans put in a layer of
    # maniplang; what is left is the benchmark's own code, or time no span
    # covers.
    ratios = [covered_ns.get(op, 0) / (lat * 1e9) for op, lat in zip(traced.op_ids, traced.latencies)]
    out["trace.coverage_ratio"] = (statistics.median(ratios), "ratio", "higher")
    out["trace.overhead_ratio"] = (
        1.0 - traced.rate(traced.normalized) / untraced.rate(untraced.normalized), "ratio", "lower",
    )
    figures, cli_phase = layers.measure(seed, tmp)
    out.update(figures)
    return out, [untraced, traced, cli_phase], [untraced, traced, cli_phase]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.PACKAGE / "__init__.py").is_file():
        print(f"error: maniplang sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    available_cpus = harness.nproc()
    cpu = harness.pin_to_one_cpu()
    harness.cap_threads()
    sys.path.insert(0, str(harness.SRC))

    harness.OUT.mkdir(exist_ok=True)
    tmp = harness.OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        # Compile maniplang's bytecode once, so no timed process pays for it.
        proc, _ = harness.run_child(["-c", "import maniplang.cli"])
        if proc.returncode != 0:
            print(f"error: cannot import maniplang:\n{proc.stderr}", file=sys.stderr)
            return 2
        print(json.dumps({"env": harness.env_block(available_cpus, cpu), "workload": args.workload,
                          "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
        run = _load(args.workload, args.seed, tmp)
        if args.trace:
            metrics, counted, checked = per_layer(args.workload, args.seed, args.seconds, tmp, run)
        else:
            metrics, report, counted, checked = end_to_end(args.workload, args.seed, args.seconds, run)
            print("latency_tail: {percentile:.2f}th percentile, {samples_beyond} of {samples} samples beyond".format(**report.pop("latency_tail")))
            for name, (value, unit, better) in report.items():
                print(f"{name:36s} {value:12.6g} {unit:6s} {better} is better (reported, not gated)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p.attempted for p in counted)
    failed = sum(len(p.failed_ops) for p in counted)
    failures = [f for p in checked for f in p.failures]
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    finite = all(math.isfinite(value) for value, _, _ in metrics.values())
    for name, (value, unit, better) in metrics.items():
        print(f"{name:36s} {value:12.6g} {unit:6s} {better} is better")
    print(json.dumps({
        "correct": failed == 0 and not failures and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
