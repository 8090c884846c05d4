"""Command-line interface.

Exit codes: 0 success, 2 validation failure (syntax/type/translation, or
an unreadable or malformed input file), 3 solver or evaluation failure
(including degenerate geometry).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import get_type_hints

from . import fixtures, metrics
from .costs import EvalContext, EvalError, evaluate
from .errors import ManiplangError
from .files import read_text, write_text
from .geometry import GeometryError
from .language.ast import to_source
from .language.typecheck import Accepted, validate_program
from .pipeline import (
    MockClient,
    PipelineConfig,
    RemoteClient,
    TranslationFailedError,
    run_task,
)
from .retrieval import load_database, retrieve
from .scene import load_scene
from .solver import SolveConfig, SolverError, solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (EvalError, GeometryError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ManiplangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maniplang")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a program file against the grammar")
    p.add_argument("file", help="program file, or - for stdin")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a cost expression against a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--expr", required=True, help="expression text")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("solve", help="solve the gripper pose for an expression")
    p.add_argument("--scene", required=True)
    p.add_argument("--expr", required=True)
    _add_solve_options(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("retrieve", help="look up a part description in a database")
    p.add_argument("--db", required=True)
    p.add_argument("--desc", required=True)
    p.set_defaults(handler=_cmd_retrieve)

    p = sub.add_parser("metrics", help="emit the representation-metrics CSV and SVG")
    p.add_argument("--profiles", required=True, help="profile file or directory")
    p.add_argument("--tasks", required=True, help="task list file")
    p.add_argument("--csv", default="metrics.csv")
    p.add_argument("--svg", default="metrics.svg")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("run", help="run one instruction end to end")
    p.add_argument("--scene", required=True)
    p.add_argument("--instruction", required=True)
    p.add_argument("--client", choices=("mock", "remote"), default="mock")
    p.add_argument("--fixtures", help="mock translation map (defaults to the shipped one)")
    p.add_argument("--endpoint", help="remote endpoint URL (or MANIPLANG_REMOTE_URL)")
    p.add_argument("--out", help="write the task trace JSON here instead of stdout")
    p.add_argument("--threshold", type=float, default=PipelineConfig.success_threshold)
    _add_solve_options(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("fixtures", help="fixture utilities")
    fix_sub = p.add_subparsers(dest="fixtures_command", required=True)
    regen = fix_sub.add_parser("regen", help="regenerate the fixture tree")
    regen.add_argument("--out", required=True)
    regen.add_argument("--seed", type=int, default=fixtures.DEFAULT_SEED)
    regen.set_defaults(handler=_cmd_fixtures_regen)

    return parser


def _add_solve_options(p: argparse.ArgumentParser) -> None:
    """One flag per SolveConfig field (`max_iterations` as --max-iterations)."""
    types = get_type_hints(SolveConfig)
    for field in dataclasses.fields(SolveConfig):
        p.add_argument(f"--{field.name.replace('_', '-')}", type=types[field.name], default=field.default)


def _solve_config(args) -> SolveConfig:
    return SolveConfig(**{field.name: getattr(args, field.name) for field in dataclasses.fields(SolveConfig)})


def _validated(source: str):
    verdict = validate_program(source)
    if not isinstance(verdict, Accepted):
        print(f"rejected: {verdict.reason}", file=sys.stderr)
        return None
    return verdict.typed


def _cmd_parse(args) -> int:
    source = sys.stdin.read() if args.file == "-" else read_text(args.file, ManiplangError)
    typed = _validated(source)
    if typed is None:
        return EXIT_INVALID
    print(f"accepted: sort={typed.sort}")
    print(to_source(typed.expr))
    return EXIT_OK


def _cost_program(source: str, use: str):
    """The typed program if it is a cost expression; else None, with the reason printed."""
    typed = _validated(source)
    if typed is not None and typed.sort != "cost":
        print(f"rejected: only cost expressions {use}", file=sys.stderr)
        return None
    return typed


def _cmd_eval(args) -> int:
    typed = _cost_program(args.expr, "evaluate to a number")
    if typed is None:
        return EXIT_INVALID
    scene = load_scene(args.scene)
    value = evaluate(typed, EvalContext(scene))
    print(f"{value:.9f}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    typed = _cost_program(args.expr, "are solvable")
    if typed is None:
        return EXIT_INVALID
    scene = load_scene(args.scene)
    result = solve(typed, scene, _solve_config(args))
    print(result.dumps())
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    db = load_database(args.db)
    match = retrieve(db, args.desc)
    print(
        json.dumps(
            {
                "entry_index": match.entry_index,
                "matched_phrase": match.matched_phrase,
                "distance": match.distance,
            }
        )
    )
    return EXIT_OK


def _cmd_metrics(args) -> int:
    profiles = metrics.load_profiles(args.profiles)
    task_count = len(fixtures.load_tasks(args.tasks))
    rows = metrics.compute_rows(profiles, task_count)
    metrics.write_outputs(rows, args.csv, args.svg)
    print(metrics.rows_to_csv(rows), end="")
    return EXIT_OK


def _emit_trace(trace, out_path) -> None:
    text = trace.dumps() + "\n"
    if out_path:
        write_text(out_path, text, ManiplangError)
    else:
        print(text, end="")


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    if args.client == "mock":
        client = MockClient(fixtures.load_mock_translations(args.fixtures))
    else:
        client = RemoteClient(endpoint=args.endpoint)
    cfg = PipelineConfig(solve=_solve_config(args), success_threshold=args.threshold)
    try:
        trace = run_task(args.instruction, scene, client, cfg)
    except TranslationFailedError as exc:
        _emit_trace(exc.trace, args.out)
        raise
    _emit_trace(trace, args.out)
    return EXIT_OK if trace.success else EXIT_SOLVER


def _cmd_fixtures_regen(args) -> int:
    written = fixtures.regen(args.out, seed=args.seed)
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
