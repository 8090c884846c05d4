"""The program_stream benchmark (perfbench/program_stream.py) labels each
program with the verdict its construction implies, and ends a run as
incorrect at the first program the front end judges otherwise. This runs the
same label check on the start of the seed-1 stream, so a change to the
language that would fail the benchmark fails here first."""

from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COUNT = 1000


def test_front_end_agrees_with_the_stream_labels(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import program_stream
    import programs

    inputs = program_stream.load_inputs(1)
    generator = program_stream.make_generator(inputs)
    for _ in range(COUNT):
        program = next(generator)
        accepted, sort, _, error = program_stream.execute(program, inputs["contexts"])
        assert programs.outcome_matches(program, accepted, error, sort), (program.label, program.source, error)
