"""Expression language: lexer, parser, vocabulary, and type checker."""

from .ast import BinOp, Call, Expr, Literal, Neg, Triple, TypedExpr, to_source
from .lexer import ParseError, Token, tokenize
from .parser import parse
from .typecheck import (
    Accepted,
    ArgumentError,
    Rejected,
    TypeCheckError,
    UnknownWordError,
    type_check,
    validate_program,
)
from .vocabulary import (
    GrammarRule,
    Param,
    Vocabulary,
    VocabularyError,
    Word,
    default_grammar,
    default_vocabulary,
    vocabulary_from_json,
    vocabulary_size,
)

__all__ = [
    "Accepted",
    "ArgumentError",
    "BinOp",
    "Call",
    "Expr",
    "GrammarRule",
    "Literal",
    "Neg",
    "ParseError",
    "Param",
    "Rejected",
    "Token",
    "Triple",
    "TypeCheckError",
    "TypedExpr",
    "UnknownWordError",
    "Vocabulary",
    "VocabularyError",
    "Word",
    "default_grammar",
    "default_vocabulary",
    "parse",
    "to_source",
    "tokenize",
    "type_check",
    "validate_program",
    "vocabulary_from_json",
    "vocabulary_size",
]
