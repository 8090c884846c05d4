"""Command-line interface.

Exit codes: 0 success, 2 validation failure (syntax/type/translation, or
an unreadable or malformed input file), 3 solver or evaluation failure
(including degenerate geometry). Each error class carries its code as
`exit_code`.

Each command loads only the modules it uses: the parser adds a
subcommand's arguments only when argv names it (every subcommand's for -h
or an unknown command), and each handler imports its modules when it runs.
These function-level imports are for start-up time, not to break an import
cycle: `parse`, `retrieve` and `metrics` never load numpy, and only a
remote `run` loads the HTTP client.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import get_type_hints

from .errors import EXIT_INVALID, EXIT_SOLVER, ManiplangError
from .files import read_text, write_text

EXIT_OK = 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except ManiplangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="maniplang")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            add_arguments(p)
            p.set_defaults(handler=handler)
    return parser.parse_args(argv)


def _add_solve_options(p: argparse.ArgumentParser) -> None:
    """One flag per SolveConfig field (`max_iterations` as --max-iterations)."""
    from .solver import SolveConfig
    types = get_type_hints(SolveConfig)
    for field in dataclasses.fields(SolveConfig):
        p.add_argument(f"--{field.name.replace('_', '-')}", type=types[field.name], default=field.default)


def _solve_config(args):
    from .solver import SolveConfig
    return SolveConfig(**{field.name: getattr(args, field.name) for field in dataclasses.fields(SolveConfig)})


def _validated(source: str):
    from .language.typecheck import Accepted, validate_program
    verdict = validate_program(source)
    if not isinstance(verdict, Accepted):
        print(f"rejected: {verdict.reason}", file=sys.stderr)
        return None
    return verdict.typed


def _parse_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="program file, or - for stdin")


def _cmd_parse(args) -> int:
    from .language.ast import to_source
    if args.file == "-":
        source = read_text("stdin", ManiplangError, stream=sys.stdin.buffer)
    else:
        source = read_text(args.file, ManiplangError)
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


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True)
    p.add_argument("--expr", required=True, help="expression text")


def _cmd_eval(args) -> int:
    from .costs import EvalContext, evaluate
    from .scene import load_scene
    typed = _cost_program(args.expr, "evaluate to a number")
    if typed is None:
        return EXIT_INVALID
    scene = load_scene(args.scene)
    value = evaluate(typed, EvalContext(scene))
    print(f"{value:.9f}")
    return EXIT_OK


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True)
    p.add_argument("--expr", required=True)
    _add_solve_options(p)


def _cmd_solve(args) -> int:
    from .scene import load_scene
    from .solver import solve
    typed = _cost_program(args.expr, "are solvable")
    if typed is None:
        return EXIT_INVALID
    scene = load_scene(args.scene)
    result = solve(typed, scene, _solve_config(args))
    print(result.dumps())
    return EXIT_OK


def _retrieve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--db", required=True)
    p.add_argument("--desc", required=True)


def _cmd_retrieve(args) -> int:
    from .retrieval import load_database, retrieve
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


def _metrics_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles", required=True, help="profile file or directory")
    p.add_argument("--tasks", required=True, help="task list file")
    p.add_argument("--csv", default="metrics.csv")
    p.add_argument("--svg", default="metrics.svg")


def _cmd_metrics(args) -> int:
    from . import metrics
    profiles = metrics.load_profiles(args.profiles)
    task_count = len(metrics.load_tasks(args.tasks))
    rows = metrics.compute_rows(profiles, task_count)
    metrics.write_outputs(rows, args.csv, args.svg)
    print(metrics.rows_to_csv(rows), end="")
    return EXIT_OK


def _run_arguments(p: argparse.ArgumentParser) -> None:
    from .pipeline import PipelineConfig
    p.add_argument("--scene", required=True)
    p.add_argument("--instruction", required=True)
    p.add_argument("--client", choices=("mock", "remote"), default="mock")
    p.add_argument("--fixtures", help="mock translation map (defaults to the shipped one)")
    p.add_argument("--endpoint", help="remote endpoint URL (or MANIPLANG_REMOTE_URL)")
    p.add_argument("--out", help="write the task trace JSON here instead of stdout")
    p.add_argument("--threshold", type=float, default=PipelineConfig.success_threshold)
    _add_solve_options(p)


def _emit_trace(trace, out_path) -> None:
    text = trace.dumps() + "\n"
    if out_path:
        write_text(out_path, text, ManiplangError)
    else:
        print(text, end="")


def _cmd_run(args) -> int:
    from .fixtures import load_mock_translations
    from .pipeline import MockClient, PipelineConfig, RemoteClient, TranslationFailedError, run_task
    from .scene import load_scene
    scene = load_scene(args.scene)
    if args.client == "mock":
        client = MockClient(load_mock_translations(args.fixtures))
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


def _fixtures_arguments(p: argparse.ArgumentParser) -> None:
    from .fixtures import DEFAULT_SEED
    fix_sub = p.add_subparsers(dest="fixtures_command", required=True)
    regen = fix_sub.add_parser("regen", help="regenerate the fixture tree")
    regen.add_argument("--out", required=True)
    regen.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _cmd_fixtures_regen(args) -> int:
    from .fixtures import regen
    written = regen(args.out, seed=args.seed)
    for path in written:
        print(path)
    return EXIT_OK


# name -> (help, the function that adds its arguments, handler), in -h order
_COMMANDS = {
    "parse": ("validate a program file against the grammar", _parse_arguments, _cmd_parse),
    "eval": ("evaluate a cost expression against a scene", _eval_arguments, _cmd_eval),
    "solve": ("solve the gripper pose for an expression", _solve_arguments, _cmd_solve),
    "retrieve": ("look up a part description in a database", _retrieve_arguments, _cmd_retrieve),
    "metrics": ("emit the representation-metrics CSV and SVG", _metrics_arguments, _cmd_metrics),
    "run": ("run one instruction end to end", _run_arguments, _cmd_run),
    "fixtures": ("fixture utilities", _fixtures_arguments, _cmd_fixtures_regen),
}


if __name__ == "__main__":
    sys.exit(main())
