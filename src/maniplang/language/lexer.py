"""Tokenizer for the expression language.

Lexical rules: identifiers `[a-z_][a-z0-9_]*`, strings in single or double
quotes on one line (spaces allowed, no escapes needed by the vocabulary),
unsigned numbers of ASCII digits `[0-9]` with optional fraction and
exponent that read as a finite float, punctuation `( ) [ ] , + - * = .`,
`#` comments running to end of line, and whitespace ` \\t\\r\\n`. One
master regular expression encodes them all. A token is its lexeme (kind,
text, offset): the parser reads numbers, strings and names from the text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, STRING, NUMBER, or the punctuation itself; EOF at end
    text: str
    offset: int


# Every alternative matches at least one character, so the matches tile the
# source; the unnamed first one (whitespace, comments) yields no token.
_TOKEN = re.compile(
    r"""
      [ \t\r\n]+ | \#[^\n]*
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    | (?P<IDENT>[a-z_][a-z0-9_]*)
    | (?P<STRING>'[^'\n]*'|"[^"\n]*")
    | (?P<PUNCT>[()\[\],+\-*=.])
    | (?P<QUOTE>['"])
    | (?P<OTHER>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(source):
        kind, text, offset = match.lastgroup, match.group(), match.start()
        if kind is None:
            continue
        if kind == "QUOTE":
            raise ParseError("unterminated string", offset, ("closing quote",))
        if kind == "OTHER":
            raise ParseError(f"unexpected character {text!r}", offset, ("token",))
        if kind == "NUMBER" and not math.isfinite(float(text)):
            raise ParseError("number literal is not finite", offset, ("finite number",))
        tokens.append(Token(text if kind == "PUNCT" else kind, text, offset))
    tokens.append(Token("EOF", "", len(source)))
    return tokens
