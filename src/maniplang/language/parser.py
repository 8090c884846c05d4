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


def parse(source: str) -> Expr:
    """Parse source text to an AST; raises ParseError on malformed input."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        # `_depth` levels sit above the node being parsed; `_deepest` is the
        # lowest level reached so far by the innermost chain being parsed.
        self._depth = 0
        self._deepest = 0

    def parse_program(self) -> Expr:
        if self._peek().kind == "EOF":
            raise ParseError("empty program", 0, ("expression",))
        expr = self._expr()
        self._expect("EOF")
        return expr

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(f"unexpected {token.kind}", token.offset, (kind,))
        return self._advance()

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
        outer, self._deepest = self._deepest, self._depth
        node = self._unary() if tight else self._expr(True)
        ops = ("*",) if tight else ("+", "-")
        while self._peek().kind in ops:
            token = self._advance()
            self._reach(self._deepest + 1, token)  # everything to the left sinks a level
            self._depth += 1  # and the right operand sits one level below the operator
            node = BinOp(token.kind, node, self._unary() if tight else self._expr(True))
            self._depth -= 1
        self._deepest = max(outer, self._deepest)
        return node

    def _unary(self) -> Expr:
        token = self._peek()
        if token.kind == "-":
            self._advance()
            self._descend(token)
            node = Neg(self._unary())
            self._depth -= 1
            return node
        return self._primary()

    def _primary(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Literal(float(token.text))
        if token.kind == "STRING":
            self._advance()
            return Literal(token.text[1:-1])
        if token.kind == "[":
            return self._list()
        if token.kind == "(":
            self._advance()
            self._descend(token)
            node = self._expr()
            self._depth -= 1
            self._expect(")")
            return node
        if token.kind == "IDENT":
            return self._call()
        raise ParseError(f"unexpected {token.kind}", token.offset, ("NUMBER", "STRING", "IDENT", "[", "("))

    def _list(self) -> Expr:
        self._descend(self._expect("["))
        items = [self._expr()]
        while self._peek().kind == ",":
            self._advance()
            items.append(self._expr())
        self._depth -= 1
        self._expect("]")
        return Triple(tuple(items))

    def _call(self) -> Expr:
        name_token = self._expect("IDENT")
        name = name_token.text
        if self._peek().kind == ".":
            # Only np.array(<list>) is admitted; it denotes the list itself.
            self._advance()
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
        if self._peek().kind != ")":
            self._argument(args, kwargs)
            while self._peek().kind == ",":
                self._advance()
                self._argument(args, kwargs)
        self._depth -= 1
        self._expect(")")
        return Call(name, tuple(args), tuple(kwargs))

    def _argument(self, args: list[Expr], kwargs: list[tuple[str, Expr]]) -> None:
        token = self._peek()
        if token.kind == "IDENT" and self._tokens[self._pos + 1].kind == "=":
            self._advance()
            self._advance()
            kwargs.append((token.text, self._expr()))
            return
        if kwargs:
            raise ParseError("positional argument after named argument", token.offset, ("IDENT =",))
        args.append(self._expr())
