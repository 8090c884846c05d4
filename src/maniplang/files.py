"""The on-disk format: UTF-8 text, and JSON with indent=2, sorted keys and a
trailing newline. A path that cannot be read or written, bad UTF-8 and bad
JSON are raised as the caller's own ManiplangError subclass."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ManiplangError


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
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n", error)


def typed_value(value, kind: type, what: str, error: type[ManiplangError]):
    """`value` if it is a `kind` (str or bool): JSON's "false" is no bool, its 1 no str."""
    if not isinstance(value, kind):
        raise error(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def string_list(value, what: str, error: type[ManiplangError]) -> tuple[str, ...]:
    """A JSON list of strings; a bare string is refused, not split into characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise error(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)
