"""The program_stream benchmark (perfbench/program_stream.py) labels each
program with the verdict its construction implies, and ends a run as
incorrect at the first program the front end judges otherwise. This runs the
same label check on the start of the seed-1 stream, so a change to the
language that would fail the benchmark fails here first.

The front-end golden pins every output of `validate_program` on the start
of that stream: a SHA-256 over each verdict and its reason, or its typed
tree (sort, word, params and source text at every node, with each node's
child count). A change that is meant to keep the front end's outputs must
keep the digest."""

import hashlib
from pathlib import Path

import pytest

from maniplang.language import Accepted, to_source, validate_program

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COUNT = 1000
GOLDEN_COUNT = 2000
GOLDEN_DIGEST = "def0f848cf9edd0720c13b188b95e77ea37d1d20ce0e19fe64d8484c01a805dd"


@pytest.fixture(scope="module")
def stream():
    """(program_stream, programs, inputs, the first GOLDEN_COUNT seed-1 programs)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(_PERFBENCH))
        import program_stream
        import programs

    inputs = program_stream.load_inputs(1)
    generator = program_stream.make_generator(inputs)
    return program_stream, programs, inputs, [next(generator) for _ in range(GOLDEN_COUNT)]


def test_front_end_agrees_with_the_stream_labels(stream):
    program_stream, programs, inputs, drawn = stream
    for program in drawn[:COUNT]:
        accepted, sort, _, error = program_stream.execute(program, inputs["contexts"])
        assert programs.outcome_matches(program, accepted, error, sort), (program.label, program.source, error)


def _typed_lines(typed):
    """One line per node of a typed tree, the root first."""
    yield repr((typed.sort, typed.word, typed.params, to_source(typed.expr), len(typed.children)))
    for child in typed.children:
        yield from _typed_lines(child)


def test_front_end_outputs_match_the_golden_digest(stream):
    drawn = stream[-1]
    digest = hashlib.sha256()
    for program in drawn:
        verdict = validate_program(program.source)
        lines = _typed_lines(verdict.typed) if isinstance(verdict, Accepted) else [verdict.reason]
        digest.update(("\n".join([type(verdict).__name__, *lines]) + "\n\n").encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
