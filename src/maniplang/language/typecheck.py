"""Sort inference and program validation.

Inference is bottom-up with one twist: literals are sort-ambiguous (a quoted
part name can stand for the part's centroid, a bracket triple can be a point
or a displacement, a non-negative number can be a constant cost term), and
so can be an operation on one (`[0, 0, 1] + get_axis('a')`: a point or a vec);
the expected sort from the enclosing context picks the reading. All
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


def _literal_sorts(node: Expr) -> tuple[str, ...]:
    """Possible sorts for an ambiguous leaf, base sort first."""
    if isinstance(node, Literal) and isinstance(node.value, str):
        extra = ("point",) if ("point", ("string",)) in _GRAMMAR else ()
        return ("string",) + extra
    if isinstance(node, Literal):
        extra = ("cost",) if node.value >= 0 and ("cost", ("number",)) in _GRAMMAR else ()
        return ("scalar",) + extra
    if isinstance(node, Triple):
        return tuple(sort for sort in ("vec", "point") if (sort, ("triple",)) in _GRAMMAR)
    raise TypeError(f"not a literal node: {node!r}")


def type_check(expr: Expr, expected_sort: str | None = "cost") -> TypedExpr:
    """Annotate `expr` with sorts; a program must come out at sort `cost`.

    Pass expected_sort=None to type a bare subexpression; validate_program
    also lets a void gripper stage action through.
    """
    typed = _infer(expr, expected_sort)
    if expected_sort is not None and typed.sort != expected_sort:
        raise TypeCheckError(expr, expected_sort, typed.sort)
    return typed


def _infer(node: Expr, expected: str | None) -> TypedExpr:
    if isinstance(node, (Literal, Triple)):
        return _infer_leaf(node, expected)
    if isinstance(node, Neg):
        operand = _infer(node.operand, "scalar")
        if operand.sort != "scalar" or ("scalar", ("-", "scalar")) not in _GRAMMAR:
            raise TypeCheckError(node, "scalar", operand.sort)
        return TypedExpr(node, "scalar", (operand,))
    if isinstance(node, BinOp):
        return _infer_binop(node, expected)
    if isinstance(node, Call):
        return _infer_call(node)
    raise TypeError(f"unknown expression node: {node!r}")


def _infer_leaf(node: Expr, expected: str | None) -> TypedExpr:
    candidates = _literal_sorts(node)
    if not candidates:
        raise TypeCheckError(node, expected or "any", "untypable literal")
    sort = expected if expected in candidates else candidates[0]
    if isinstance(node, Triple):
        if len(node.items) != 3:
            raise TypeCheckError(node, "a 3-element list", f"{len(node.items)}-element list")
        children = tuple(_infer(item, "scalar") for item in node.items)
        for item in children:
            if item.sort != "scalar":
                raise TypeCheckError(item.expr, "scalar", item.sort)
        return TypedExpr(node, sort, children)
    return TypedExpr(node, sort)


def _infer_binop(node: BinOp, expected: str | None) -> TypedExpr:
    left_opts, left = _operand(node.left, expected)
    right_opts, right = _operand(node.right, expected)
    matches = [
        (lhs, rhs)
        for lhs, rhs in _GRAMMAR
        if len(rhs) == 3 and rhs[1] == node.op and rhs[0] in left_opts and rhs[2] in right_opts
    ]
    if not matches:
        actual = f"{next(iter(left_opts))} {node.op} {next(iter(right_opts))}"
        raise TypeCheckError(node, expected or "a composable pair", actual)
    lhs, rhs = next((m for m in matches if m[0] == expected), matches[0])
    left = left or _infer(node.left, rhs[0])
    right = right or _infer(node.right, rhs[2])
    return TypedExpr(node, lhs, (left, right))


def _sorts(node: Expr) -> tuple[str, ...]:
    """Every sort `node` can take in some context, in rule order; () where it
    can take none or names an unknown word (typing it reports why)."""
    if isinstance(node, (Literal, Triple)):
        return _literal_sorts(node)
    if isinstance(node, BinOp):
        left, right = _sorts(node.left), _sorts(node.right)
        return tuple(dict.fromkeys(
            lhs for lhs, rhs in _GRAMMAR
            if len(rhs) == 3 and rhs[1] == node.op and rhs[0] in left and rhs[2] in right
        ))
    if isinstance(node, Call):
        word = _VOCAB.lookup(node.word)
        return (word.result_sort,) if word is not None else ()
    return ("scalar",)  # Neg


def _operand(node: Expr, expected: str | None):
    """(possible sorts, typed tree or None) for one side of a binary node. An
    operand that can take more than one sort (a literal, or an operation on
    one such as `[0, 0, 1] + get_axis('a')`, a point or a vec) is typed
    once the rule is picked; any other operand has one sort in every context,
    so it is typed once, here (not once more per rule)."""
    opts = _sorts(node)
    if len(opts) > 1 or isinstance(node, (Literal, Triple)):
        if expected in opts:
            # Prefer the contextual reading so `0 + 0` sums as cost at the top.
            return (expected,) + tuple(o for o in opts if o != expected), None
        return opts, None
    typed = _infer(node, None)
    return (typed.sort,), typed


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
    bound: list[tuple[str, TypedExpr]] = []
    for param in params:
        if param.name not in assigned:
            if param.required:
                raise ArgumentError(f"{node.word}: missing argument {param.name!r}")
            continue
        arg = assigned[param.name]
        typed_arg = _infer(arg, param.sort)
        if typed_arg.sort != param.sort:
            raise TypeCheckError(arg, param.sort, typed_arg.sort)
        bound.append((param.name, typed_arg))
    children = tuple(typed_arg for _, typed_arg in bound)
    return TypedExpr(node, word.result_sort, children, word=word.name, bound=tuple(bound))


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
        typed = _infer(expr, "cost")
    except ManiplangError as exc:  # ParseError included
        return Rejected(exc)
    if typed.sort not in ("cost", "void"):
        return Rejected(TypeCheckError(expr, "cost", typed.sort))
    return Accepted(typed)
