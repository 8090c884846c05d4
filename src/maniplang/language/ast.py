"""Expression AST and its source printer.

The parser emits a single BinOp node for every infix `+`/`-`/`*`; the type
checker later tells cost sums, point arithmetic, and vec scaling apart by the
sorts it assigns. A TypedExpr wraps each node with its derived sort.
Each node is a frozen dataclass with a written-out `__init__` that stores into
the instance dict, at under half the cost of the dataclass's own.
"""

from __future__ import annotations

from dataclasses import dataclass

SORTS = ("point", "vec", "cost", "scalar", "string", "void")


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, init=False)
class Literal(Expr):
    """A quoted string or a number."""

    value: str | float

    def __init__(self, value):
        self.__dict__["value"] = value


@dataclass(frozen=True, init=False)
class Triple(Expr):
    """Bracketed list; must hold exactly three scalar expressions to type."""

    items: tuple[Expr, ...]

    def __init__(self, items):
        self.__dict__["items"] = items


@dataclass(frozen=True, init=False)
class Call(Expr):
    """Vocabulary word application with positional and named arguments."""

    word: str
    args: tuple[Expr, ...] = ()
    kwargs: tuple[tuple[str, Expr], ...] = ()

    def __init__(self, word, args=(), kwargs=()):
        d = self.__dict__
        d["word"], d["args"], d["kwargs"] = word, args, kwargs


@dataclass(frozen=True, init=False)
class BinOp(Expr):
    """Infix `+`, `-`, or `*`; the sort decides which grammar rule applies."""

    op: str
    left: Expr
    right: Expr

    def __init__(self, op, left, right):
        d = self.__dict__
        d["op"], d["left"], d["right"] = op, left, right


@dataclass(frozen=True, init=False)
class Neg(Expr):
    operand: Expr

    def __init__(self, operand):
        self.__dict__["operand"] = operand


@dataclass(frozen=True, init=False)
class TypedExpr:
    """A sort-annotated expression tree.

    `children` follow source order, except that a call's children are its
    typed arguments in parameter order. A typed call also carries `word`, the
    resolved (alias-canonical) vocabulary word name, and `params`, the name
    of the parameter each child binds; an omitted optional one is absent.
    """

    expr: Expr
    sort: str
    children: tuple["TypedExpr", ...] = ()
    word: str | None = None
    params: tuple[str, ...] = ()

    def __init__(self, expr, sort, children=(), word=None, params=()):
        d = self.__dict__
        d["expr"], d["sort"], d["children"], d["word"], d["params"] = expr, sort, children, word, params


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def to_source(expr: Expr) -> str:
    """Render an AST back to concrete syntax that reparses to an equal tree."""
    return _emit(expr, 0, False)


def _emit(expr: Expr, parent_prec: int, right_operand: bool) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            # A string lexes with either quote kind inside the other, never both.
            quote = "'" if '"' in expr.value else '"'
            return quote + expr.value + quote
        return repr(expr.value)
    if isinstance(expr, Triple):
        return "[" + ", ".join(_emit(item, 0, False) for item in expr.items) + "]"
    if isinstance(expr, Call):
        parts = [_emit(arg, 0, False) for arg in expr.args]
        parts += [f"{name}={_emit(value, 0, False)}" for name, value in expr.kwargs]
        return f"{expr.word}({', '.join(parts)})"
    if isinstance(expr, Neg):
        inner = _emit(expr.operand, 3, False)
        return f"-{inner}"
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        text = (
            f"{_emit(expr.left, prec, False)} {expr.op} {_emit(expr.right, prec, True)}"
        )
        # The grammar is left-associative, so a right operand at equal
        # precedence needs parentheses to keep the tree shape.
        if prec < parent_prec or (prec == parent_prec and right_operand):
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")
