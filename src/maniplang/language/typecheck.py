"""Sort inference and program validation, in one bottom-up pass.

`_readings` types each node once and returns every sort it can take, each
with its typed tree, in rule order; the parent picks one. Literals are what
make a node take more than one sort: a quoted part name can stand for the
part's centroid, a bracket triple can be a point or a displacement, a
non-negative number can be a constant cost term. An operation on one can too
(`[0, 0, 1] + get_axis('a')`: a point or a vec). A binary node keeps, per
result sort, the first grammar rule its operands' readings match; a context
that expects a sort (a parameter, a list item, the program) takes that
reading, or else the first. This is the recognizer of a context-free
grammar (CYK, Younger 1967) on a tree the parser has already built. All
composition and coercion possibilities come from `default_grammar()`, built
once as `_GRAMMAR`, so the checker accepts exactly what that grammar says.
"""

from __future__ import annotations

from ..errors import ManiplangError
from .ast import BinOp, Call, Expr, Literal, Neg, Triple, TypedExpr, to_source
from .parser import parse
from .vocabulary import default_grammar, default_vocabulary


class TypeCheckError(ManiplangError):
    """Sort mismatch; names the offending node and the expected/actual sorts."""

    def __init__(self, node: Expr, expected: str, actual: str):
        self.node = node
        self.expected = expected
        self.actual = actual
        super().__init__(f"expected {expected}, got {actual} in `{to_source(node)}`")


class UnknownWordError(ManiplangError):
    def __init__(self, name: str):
        self.word = name
        super().__init__(f"unknown vocabulary word {name!r}")


class ArgumentError(ManiplangError):
    """Wrong arity or an argument name the word does not declare."""


# The shipped vocabulary, and the shipped grammar as an ordered set of
# (lhs, rhs) pairs: membership tests are lookups, and binary rules are still
# tried in rule order.
_VOCAB = default_vocabulary()
_GRAMMAR = dict.fromkeys((r.lhs, r.rhs) for r in default_grammar())


def type_check(expr: Expr, expected_sort: str | None = "cost") -> TypedExpr:
    """Annotate `expr` with sorts; a program must come out at sort `cost`.

    Pass expected_sort=None to type a bare subexpression; validate_program
    also lets a void gripper stage action through.
    """
    typed = _typed(expr, expected_sort)
    if expected_sort is not None and typed.sort != expected_sort:
        raise TypeCheckError(expr, expected_sort, typed.sort)
    return typed


def _typed(node: Expr, expected: str | None) -> TypedExpr:
    """The reading of `node` at the expected sort, or else its first."""
    readings = _readings(node, expected)
    return readings.get(expected) or next(iter(readings.values()))


def _readings(node: Expr, expected: str | None) -> dict[str, TypedExpr]:
    """Every sort `node` can take, in rule order, each with its typed tree.

    `expected` narrows a literal to that one reading when it can take it,
    and names the sort a binary node was wanted at when none of its rules
    matches; operands are read with no expected sort, so the parent picks.
    """
    if isinstance(node, BinOp):
        left, right = _readings(node.left, None), _readings(node.right, None)
        readings: dict[str, TypedExpr] = {}
        for lhs, rhs in _GRAMMAR:
            if len(rhs) == 3 and rhs[1] == node.op and lhs not in readings and rhs[0] in left and rhs[2] in right:
                readings[lhs] = TypedExpr(node, lhs, (left[rhs[0]], right[rhs[2]]))
        if not readings:
            # Name each operand at the expected sort if it can take it.
            left_sort, right_sort = (next(s for s in (expected, *side) if s in side) for side in (left, right))
            raise TypeCheckError(node, expected or "a composable pair", f"{left_sort} {node.op} {right_sort}")
        return readings
    if isinstance(node, Call):
        typed = _infer_call(node)
        return {typed.sort: typed}
    if isinstance(node, Neg):
        operand = _typed(node.operand, "scalar")
        if operand.sort != "scalar" or ("scalar", ("-", "scalar")) not in _GRAMMAR:
            raise TypeCheckError(node, "scalar", operand.sort)
        return {"scalar": TypedExpr(node, "scalar", (operand,))}
    if isinstance(node, Literal) and isinstance(node.value, str):
        sorts = ("string",) + (("point",) if ("point", ("string",)) in _GRAMMAR else ())
    elif isinstance(node, Literal):
        sorts = ("scalar",) + (("cost",) if node.value >= 0 and ("cost", ("number",)) in _GRAMMAR else ())
    elif isinstance(node, Triple):
        sorts = tuple(sort for sort in ("vec", "point") if (sort, ("triple",)) in _GRAMMAR)
    else:
        raise TypeError(f"unknown expression node: {node!r}")
    if not sorts:
        raise TypeCheckError(node, expected or "any", "untypable literal")
    children: tuple[TypedExpr, ...] = ()
    if isinstance(node, Triple):
        if len(node.items) != 3:
            raise TypeCheckError(node, "a 3-element list", f"{len(node.items)}-element list")
        children = tuple(_typed(item, "scalar") for item in node.items)
        for item in children:
            if item.sort != "scalar":
                raise TypeCheckError(item.expr, "scalar", item.sort)
    return {sort: TypedExpr(node, sort, children) for sort in ((expected,) if expected in sorts else sorts)}


def _infer_call(node: Call) -> TypedExpr:
    word = _VOCAB.lookup(node.word)
    if word is None:
        raise UnknownWordError(node.word)
    params = word.params
    if len(node.args) > len(params):
        raise ArgumentError(
            f"{node.word} takes at most {len(params)} arguments, got {len(node.args)}"
        )
    assigned: dict[str, Expr] = {param.name: arg for param, arg in zip(params, node.args)}
    declared = {p.name for p in params}
    for name, value in node.kwargs:
        if name not in declared:
            raise ArgumentError(f"{node.word} has no argument named {name!r}")
        if name in assigned:
            raise ArgumentError(f"{node.word}: argument {name!r} given twice")
        assigned[name] = value
    children: list[TypedExpr] = []
    for param in params:
        if param.name not in assigned:
            if param.required:
                raise ArgumentError(f"{node.word}: missing argument {param.name!r}")
            continue
        arg = assigned[param.name]
        typed_arg = _typed(arg, param.sort)
        if typed_arg.sort != param.sort:
            raise TypeCheckError(arg, param.sort, typed_arg.sort)
        children.append(typed_arg)
    names = tuple(param.name for param in params if param.name in assigned)
    return TypedExpr(node, word.result_sort, tuple(children), word=word.name, params=names)


class Accepted:
    """Successful validation; carries the typed program."""

    __slots__ = ("typed",)

    def __init__(self, typed: TypedExpr):
        self.typed = typed

    def __bool__(self) -> bool:
        return True


class Rejected:
    """Failed validation; carries the reason, never an exception escape."""

    __slots__ = ("reason", "error")

    def __init__(self, error: ManiplangError):
        self.error = error
        self.reason = f"{type(error).__name__}: {error}"

    def __bool__(self) -> bool:
        return False


def validate_program(source: str) -> Accepted | Rejected:
    """Parse + type check against the shipped vocabulary and grammar, as a
    total function; errors come back as values.

    A program is a cost expression, or a bare void gripper action that
    stands alone as a stage.
    """
    try:
        expr = parse(source)
        # Hint cost so literal terms coerce, but let void actions through.
        typed = _typed(expr, "cost")
    except ManiplangError as exc:  # ParseError included
        return Rejected(exc)
    if typed.sort not in ("cost", "void"):
        return Rejected(TypeCheckError(expr, "cost", typed.sort))
    return Accepted(typed)
