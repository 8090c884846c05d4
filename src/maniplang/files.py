"""The on-disk format: UTF-8 text, and JSON with indent=2, sorted keys and a
trailing newline. A path that cannot be read or written, bad UTF-8 and bad
JSON are raised as the caller's own ManiplangError subclass. `DATA_ROOT` is
the shipped data tree, `maniplang/data`, named here and nowhere else."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ManiplangError

DATA_ROOT = Path(__file__).with_name("data")


def read_text(path, error: type[ManiplangError]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def read_json(path, error: type[ManiplangError]):
    text = read_text(path, error)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def write_text(path, text: str, error: type[ManiplangError]) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot write {path}: {exc}") from exc


def write_json(path, doc, error: type[ManiplangError]) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or inf: not JSON
        raise error(f"cannot write {path}: {exc}") from exc
    write_text(path, text + "\n", error)


def typed_value(value, kind: type, what: str, error: type[ManiplangError], depth: int = 0):
    """`value` if it is a `kind` inside `depth` nested lists. Types are exact, so
    JSON's "false" is no bool, its 1 no str and its true no int or float; a
    `kind` of float also takes an int."""
    items = [value]
    for wanted in [list] * depth + [kind]:
        bad = set(map(type, items)) - ({int, float} if wanted is float else {wanted})
        if bad:
            got = next(v for v in items if type(v) in bad)
            raise error(f"{what} must be a JSON {'list of ' * depth}{kind.__name__}, got {got!r}")
        items = [item for v in items for item in v] if wanted is list else items
    return value
