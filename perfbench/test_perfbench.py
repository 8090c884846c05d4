"""Tests of the benchmark's own parts: the program generator and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import programs  # noqa: E402
import tracing  # noqa: E402

SEED = 20251119
COUNT = 1500


@pytest.fixture(scope="module")
def stream_inputs():
    import program_stream

    return program_stream.load_inputs(SEED)


def _programs(inputs, count=COUNT):
    import program_stream

    generator = program_stream.make_generator(inputs)
    return [generator.next_program() for _ in range(count)]


def test_labels_agree_with_validate_program(stream_inputs):
    import program_stream

    phase = harness.Phase()
    stream = _programs(stream_inputs)
    for program in stream:
        outcome = program_stream.execute(program, stream_inputs["contexts"])
        program_stream.check(program, outcome, stream_inputs["contexts"], phase)
    assert phase.failures == []
    labels = {p.label for p in stream}
    assert labels == {label for label, _ in programs.BLOCK} - {programs.VOID}
    assert any(p.exact_source is not None for p in stream), "no paraphrased program drawn"


def test_block_mix_is_exact(stream_inputs):
    stream = _programs(stream_inputs, programs.BLOCK_SIZE)
    counts = {}
    for p in stream:
        kind = programs.VOID if p.sort == "void" else p.label
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == dict(programs.BLOCK)


def test_same_seed_same_stream(stream_inputs):
    assert _programs(stream_inputs, 300) == _programs(stream_inputs, 300)


def test_other_seed_other_stream(stream_inputs):
    other = dict(stream_inputs, seed=SEED + 1)
    assert _programs(stream_inputs, 50) != _programs(other, 50)


def test_self_times_on_hand_built_tree():
    # root [0, 100) has children a [10, 40) and b [30, 70), which overlap on
    # [30, 40); a has child c [15, 25); b has child d [60, 90), which sticks
    # out of b and is clipped to [60, 70) for b's accounting.
    start = [0, 10, 30, 15, 60]
    end = [100, 40, 70, 25, 90]
    parent = [-1, 0, 0, 1, 2]
    # root: 100 - |[10, 70)| = 40; a: 30 - 10 = 20; b: 40 - 10 = 30; c: 10; d: 30
    assert tracing.self_times(start, end, parent) == [40, 20, 30, 10, 30]


def test_self_times_sum_to_wall_time_when_nested():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "costs.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "solver.outer")
    with tracer.operation(1):
        outer()
    own = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    root = tracer.names.index(tracing.ROOT_SPAN)
    root_index = list(tracer.name_id).index(root)
    assert sum(own) == tracer.end[root_index] - tracer.start[root_index]
    per_layer, covered = tracing.layer_self_ns(tracer)
    assert set(per_layer) == {"bench", "solver", "costs"}
    assert covered == {1: sum(own) - per_layer["bench"]}


def test_calibration_slices_leave_the_layers():
    tracer = tracing.Tracer()
    # op 1: root [0, 100) with child costs.a [10, 60), both by hand.
    for name, start, end, parent in ((tracing.ROOT_SPAN, 0, 100, -1), ("costs.a", 10, 60, 0)):
        tracer.name_id.append(tracer._intern(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(1)
    # Slices in seconds: one inside costs.a, one in the root only, one between operations.
    tracer.add_slices([(20e-9, 30e-9), (70e-9, 80e-9), (200e-9, 210e-9)])
    assert list(tracer.parent) == [-1, 0, 1, 0]
    per_layer, covered = tracing.layer_self_ns(tracer)
    assert per_layer == {"bench": 40, "costs": 40}
    assert covered == {1: 40}  # the root's own time is the benchmark's, not maniplang's


def test_patches_are_restored():
    import maniplang.solver

    original = maniplang.solver.evaluate
    tracer = tracing.Tracer()
    with tracer.patched():
        assert maniplang.solver.evaluate is not original
    assert maniplang.solver.evaluate is original


def test_tail_rule():
    assert harness.tail([float(i) for i in range(99)]) == (98.0, 100.0, 0)
    value, percentile, beyond = harness.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(90.0)
    value, percentile, beyond = harness.tail([float(i) for i in range(15_000)])
    assert (value, beyond) == (14_984.0, 15)
    assert percentile == pytest.approx(99.9)


def test_calibration_splits_operations_at_slices():
    nominal = harness.REF_NOMINAL_S
    phase = harness.Phase()
    # Reference slices (start, end, seconds per repetition): speeds 1x, 2x, 1x, 3x.
    phase.refs = [(0.0, 1.0, nominal), (3.0, 4.0, 2 * nominal), (6.0, 7.0, nominal), (9.0, 10.0, 3 * nominal)]
    # The first operation holds the second slice: stretches [1, 3) and [4, 6)
    # run at slowdown 1.5 each. The second lies between slices at 1x and 3x.
    phase.op_spans = [(1.0, 6.0), (7.0, 9.0)]
    phase.finish()
    assert phase.latencies == [4.0, 2.0]
    assert phase.normalized == pytest.approx([4.0 / 1.5, 1.0])
