"""The on-disk format: UTF-8 text, and JSON with indent=2, sorted keys and a
trailing newline. A path that cannot be read or written, bad UTF-8 (in a
file or on stdin) and bad JSON are raised as the caller's own
ManiplangError subclass. `DATA_ROOT` is the shipped data tree,
`maniplang/data`, named here and nowhere else.

Every reader of a document reads its fields through `member` (a field of a
JSON object, or its default) and `typed_value` (a value of a JSON type), so
a bad document raises one of two messages, each naming the field at fault
as the reader calls it: `{what}: missing {key}`, or `{what} must be a JSON
{type}, got {value}`."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

from .errors import ManiplangError

DATA_ROOT = Path(__file__).with_name("data")


def read_text(path, error: type[ManiplangError], stream=None) -> str:
    """The UTF-8 text of the file at `path`, or of the binary `stream` (stdin,
    say) when given, then named `path`; newlines translated as in text mode."""
    try:
        data = Path(path).read_bytes() if stream is None else stream.read()
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
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


def dumps(doc) -> str:
    """The JSON text of `doc`, without the trailing newline; NaN or inf raise ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def write_json(path, doc, error: type[ManiplangError]) -> None:
    try:
        text = dumps(doc)
    except ValueError as exc:  # NaN or inf: not JSON
        raise error(f"cannot write {path}: {exc}") from exc
    write_text(path, text + "\n", error)


def member(holder, key: str, what: str, error: type[ManiplangError], *default):
    """holder[key], where `holder` must be the JSON object named `what`; an
    absent key gives `default`, if one is given."""
    if type(holder) is not dict:
        typed_value(holder, dict, what, error)
    if key in holder:
        return holder[key]
    if default:
        return default[0]
    raise error(f"{what}: missing {key}")


def typed_value(value, kind: type, what: str, error: type[ManiplangError], depth: int = 0):
    """`value` if it is a `kind` inside `depth` nested lists. Types are exact, so
    JSON's "false" is no bool, its 1 no str and its true no int or float; a
    `kind` of float also takes an int that a float can hold. A dict is named
    a JSON object."""
    if depth == 0 and type(value) is kind:  # the common case, before the general check
        return value
    name = "object" if kind is dict else kind.__name__
    items = [value]
    for wanted in [list] * depth + [kind]:
        types = set(map(type, items))
        bad = types - ({int, float} if wanted is float else {wanted})
        if bad:
            got = next(v for v in items if type(v) in bad)
            raise error(f"{what} must be a JSON {'list of ' * depth}{name}, got {_shown(got)}")
        items = [item for v in items for item in v] if wanted is list else items
    if kind is float and int in types and max(abs(v) for v in items if type(v) is int) > sys.float_info.max:
        raise error(f"{what} must be a JSON {'list of ' * depth}float, got an int too large for a float")
    return value


def _shown(value) -> str:
    """repr(value), cut to 40 characters: a document's value can be any size."""
    try:
        text = repr(value)
    except ValueError:  # an int with more digits than Python converts to text
        return "a value too long to print"
    return text if len(text) <= 40 else f"{text[:37]}..."
