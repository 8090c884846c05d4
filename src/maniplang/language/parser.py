"""Recursive-descent parser for call expressions.

Grammar (left-associative, `*` binds tighter than `+`/`-`, unary `-`
tightest):

    program  := expr EOF
    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | primary
    primary  := NUMBER | STRING | list | call | '(' expr ')'
    list     := '[' expr (',' expr)* ']'
    call     := IDENT '(' [arg (',' arg)*] ')'
              | 'np' '.' 'array' '(' list ')'        # alternate list spelling
    arg      := [IDENT '='] expr

A syntax tree taller than MAX_DEPTH is rejected while it is parsed, so no
later pass recurses deeper. Each nested parenthesis, list, call and unary
minus is a level, and so is each operator of a chain: it pushes the chain
so far one level down.
"""

from __future__ import annotations

from .ast import BinOp, Call, Expr, Literal, Neg, Triple
from .lexer import ParseError, Token, tokenize

MAX_DEPTH = 100  # the tallest of 60,000 program_stream programs is 8 levels
_LITERALS = ("NUMBER", "STRING")
_CLOSERS = (",", ")", "]", "EOF")


def parse(source: str) -> Expr:
    """Parse source text to an AST; raises ParseError on malformed input."""
    return _Parser(tokenize(source)).parse_program()


def _literal(token: Token) -> Literal:
    return Literal(float(token.text) if token.kind == "NUMBER" else token.text[1:-1])


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._kinds = [token.kind for token in tokens]  # read by index, as is `_tokens`
        self._pos = 0
        # `_depth` levels sit above the node being parsed; `_deepest` is the
        # lowest level reached so far by the innermost chain being parsed.
        self._depth = 0
        self._deepest = 0

    def parse_program(self) -> Expr:
        if self._kinds[0] == "EOF":
            raise ParseError("empty program", 0, ("expression",))
        expr = self._expr()
        self._expect("EOF")
        return expr

    def _expect(self, kind: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind != kind:
            raise ParseError(f"unexpected {token.kind}", token.offset, (kind,))
        self._pos += 1
        return token

    def _descend(self, token: Token) -> None:
        """Step one level down; `token` opens the level. Callers step back up."""
        self._depth += 1
        if self._depth > self._deepest:
            self._reach(self._depth, token)

    def _reach(self, level: int, token: Token) -> None:
        if level > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", token.offset)
        self._deepest = level

    def _expr(self, tight: bool = False) -> Expr:
        """A left-associative chain: `+`/`-` over `*` chains over unary
        operands. One method serves both, for a shallower stack."""
        kinds, pos = self._kinds, self._pos
        if kinds[pos] in _LITERALS and kinds[pos + 1] in _CLOSERS:
            # A lone literal: the chain bookkeeping below would leave
            # `_deepest` as it is, since `_deepest >= _depth` always holds.
            self._pos = pos + 1
            return _literal(self._tokens[pos])
        outer, self._deepest = self._deepest, self._depth
        node = self._unary() if tight else self._expr(True)
        ops = ("*",) if tight else ("+", "-")
        while kinds[self._pos] in ops:
            token = self._tokens[self._pos]
            self._pos += 1
            self._reach(self._deepest + 1, token)  # everything to the left sinks a level
            self._depth += 1  # and the right operand sits one level below the operator
            node = BinOp(token.kind, node, self._unary() if tight else self._expr(True))
            self._depth -= 1
        self._deepest = max(outer, self._deepest)
        return node

    def _unary(self) -> Expr:
        pos = self._pos
        token = self._tokens[pos]
        kind = token.kind
        if kind in _LITERALS:
            self._pos = pos + 1
            return _literal(token)
        if kind == "IDENT":
            return self._call()
        if kind == "[":
            return self._list()
        if kind == "-" or kind == "(":
            self._pos = pos + 1
            self._descend(token)
            node = Neg(self._unary()) if kind == "-" else self._expr()
            self._depth -= 1
            if kind == "(":
                self._expect(")")
            return node
        raise ParseError(f"unexpected {kind}", token.offset, ("NUMBER", "STRING", "IDENT", "[", "("))

    def _list(self) -> Expr:
        self._descend(self._expect("["))
        items = [self._expr()]
        while self._kinds[self._pos] == ",":
            self._pos += 1
            items.append(self._expr())
        self._depth -= 1
        self._expect("]")
        return Triple(tuple(items))

    def _call(self) -> Expr:
        name_token = self._tokens[self._pos]
        name = name_token.text
        self._pos += 1
        if self._kinds[self._pos] == ".":
            # Only np.array(<list>) is admitted; it denotes the list itself.
            self._pos += 1
            attr = self._expect("IDENT")
            if name != "np" or attr.text != "array":
                raise ParseError(f"unknown dotted name {name}.{attr.text}", name_token.offset, ("np.array",))
            self._expect("(")
            inner = self._list()
            self._expect(")")
            return inner
        self._expect("(")
        self._descend(name_token)
        args: list[Expr] = []
        kwargs: list[tuple[str, Expr]] = []
        if self._kinds[self._pos] != ")":
            self._argument(args, kwargs)
            while self._kinds[self._pos] == ",":
                self._pos += 1
                self._argument(args, kwargs)
        self._depth -= 1
        self._expect(")")
        return Call(name, tuple(args), tuple(kwargs))

    def _argument(self, args: list[Expr], kwargs: list[tuple[str, Expr]]) -> None:
        pos = self._pos
        token = self._tokens[pos]
        if token.kind == "IDENT" and self._kinds[pos + 1] == "=":
            self._pos = pos + 2
            kwargs.append((token.text, self._expr()))
            return
        if kwargs:
            raise ParseError("positional argument after named argument", token.offset, ("IDENT =",))
        args.append(self._expr())
