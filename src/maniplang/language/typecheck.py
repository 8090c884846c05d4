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
composition and coercion possibilities come from `default_grammar()`, held
once: the binary rules keyed by operator (`_RULES`, so a binary node tries
only its own operator's rules) and the coercion pairs, so the checker
accepts exactly what that grammar says.
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


# The shipped vocabulary, and the shipped grammar held once: the binary
# rules keyed by operator, each as (lhs, left, right) in rule order, and the
# coercion pairs (lhs, rhs) of the rest, unary negation among them.
_VOCAB = default_vocabulary()
_RULES = {  # for the parser's three infix operators
    op: [(r.lhs, r.rhs[0], r.rhs[2]) for r in default_grammar() if len(r.rhs) == 3 and r.rhs[1] == op]
    for op in "+-*"
}
_COERCIONS = {(rule.lhs, rule.rhs) for rule in default_grammar() if len(rule.rhs) < 3}
# The sorts a literal can take: a part name, a non-negative number, a list.
_STRING_SORTS = ("string",) + (("point",) if ("point", ("string",)) in _COERCIONS else ())
_NUMBER_SORTS = ("scalar",) + (("cost",) if ("cost", ("number",)) in _COERCIONS else ())
_TRIPLE_SORTS = tuple(sort for sort in ("vec", "point") if (sort, ("triple",)) in _COERCIONS)
# Each word's parameters, name -> (sort, required) in signature order.
_PARAMS = {word.name: {p.name: (p.sort, p.required) for p in word.params} for word in _VOCAB.words}


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
    children: tuple[TypedExpr, ...] = ()
    if isinstance(node, Literal):
        sorts = _STRING_SORTS if isinstance(node.value, str) else _NUMBER_SORTS if node.value >= 0 else ("scalar",)
    elif isinstance(node, Call):
        typed = _infer_call(node)
        return {typed.sort: typed}
    elif isinstance(node, BinOp):
        left, right = _readings(node.left, None), _readings(node.right, None)
        readings: dict[str, TypedExpr] = {}
        for lhs, left_sort, right_sort in _RULES.get(node.op, ()):
            if lhs not in readings and left_sort in left and right_sort in right:
                readings[lhs] = TypedExpr(node, lhs, (left[left_sort], right[right_sort]))
        if not readings:
            # Name each operand at the expected sort if it can take it.
            left_sort, right_sort = (next(s for s in (expected, *side) if s in side) for side in (left, right))
            raise TypeCheckError(node, expected or "a composable pair", f"{left_sort} {node.op} {right_sort}")
        return readings
    elif isinstance(node, Triple):
        sorts = _TRIPLE_SORTS
        if not sorts:
            raise TypeCheckError(node, expected or "any", "untypable literal")
        if len(node.items) != 3:
            raise TypeCheckError(node, "a 3-element list", f"{len(node.items)}-element list")
        children = tuple(_typed(item, "scalar") for item in node.items)
        for item in children:
            if item.sort != "scalar":
                raise TypeCheckError(item.expr, "scalar", item.sort)
    elif isinstance(node, Neg):
        operand = _typed(node.operand, "scalar")
        if operand.sort != "scalar" or ("scalar", ("-", "scalar")) not in _COERCIONS:
            raise TypeCheckError(node, "scalar", operand.sort)
        return {"scalar": TypedExpr(node, "scalar", (operand,))}
    else:
        raise TypeError(f"unknown expression node: {node!r}")
    if expected in sorts:
        return {expected: TypedExpr(node, expected, children)}
    return {sort: TypedExpr(node, sort, children) for sort in sorts}


def _infer_call(node: Call) -> TypedExpr:
    word = _VOCAB.lookup(node.word)
    if word is None:
        raise UnknownWordError(node.word)
    params = _PARAMS[word.name]
    if len(node.args) > len(params):
        raise ArgumentError(
            f"{node.word} takes at most {len(params)} arguments, got {len(node.args)}"
        )
    assigned: dict[str, Expr] = dict(zip(params, node.args))
    for name, value in node.kwargs:
        if name not in params:
            raise ArgumentError(f"{node.word} has no argument named {name!r}")
        if name in assigned:
            raise ArgumentError(f"{node.word}: argument {name!r} given twice")
        assigned[name] = value
    children: list[TypedExpr] = []
    names: list[str] = []
    for name, (sort, required) in params.items():
        if name not in assigned:
            if required:
                raise ArgumentError(f"{node.word}: missing argument {name!r}")
            continue
        arg = assigned[name]
        typed_arg = _typed(arg, sort)
        if typed_arg.sort != sort:
            raise TypeCheckError(arg, sort, typed_arg.sort)
        children.append(typed_arg)
        names.append(name)
    return TypedExpr(node, word.result_sort, tuple(children), word.name, tuple(names))


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
