"""Tokenizer for the expression language.

Lexical rules: identifiers `[a-z_][a-z0-9_]*`, strings in single or double
quotes on one line (spaces allowed, no escapes needed by the vocabulary),
unsigned numbers of ASCII digits `[0-9]` with optional fraction and
exponent that read as a finite float, punctuation `( ) [ ] , + - * = .`,
`#` comments running to end of line, and whitespace ` \\t\\r\\n`. One
master regular expression encodes them all. Its matches tile the source, so
offsets are running sums of their lengths, and a match's first character
names its kind through one table (a quote alone is an unterminated string).
A `Token` is its lexeme (kind, text, offset) as a named tuple, equal to the
plain 3-tuple: the parser reads numbers, strings and names from the text.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import ManiplangError


class ParseError(ManiplangError):
    """Syntax failure with the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class Token(NamedTuple):
    kind: str  # IDENT, STRING, NUMBER, or the punctuation itself; EOF at end
    text: str
    offset: int


# Every alternative matches at least one character, so the matches tile the
# source; a lone quote and `.` (any other character) are the two errors.
_TOKEN = re.compile(
    r"""[ \t\r\n]+ | \#[^\n]* | [0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)? | [a-z_][a-z0-9_]*
      | '[^'\n]*' | "[^"\n]*" | [()\[\],+\-*=.] | ['"] | .""",
    re.VERBOSE | re.DOTALL,
)
# A match's kind by its first character; "" for whitespace and comments.
_KIND = {
    **dict.fromkeys(" \t\r\n#", ""),
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("'\"", "STRING"),
    **{c: c for c in "()[],+-*=."},
}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    offset = 0
    for text in _TOKEN.findall(source):
        kind = _KIND.get(text[0])
        if kind is None:
            raise ParseError(f"unexpected character {text!r}", offset, ("token",))
        if kind == "STRING" and len(text) == 1:
            raise ParseError("unterminated string", offset, ("closing quote",))
        if kind == "NUMBER" and not math.isfinite(float(text)):
            raise ParseError("number literal is not finite", offset, ("finite number",))
        if kind:
            tokens.append(tuple.__new__(Token, (kind, text, offset)))  # half the cost of Token(...)
        offset += len(text)
    tokens.append(Token("EOF", "", len(source)))
    return tokens
