"""Expression language: lexer, parser, vocabulary, and type checker.

The public names and submodules are imported on first use (PEP 562), so a
caller that needs only the vocabulary does not load the parser."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ast": ("BinOp", "Call", "Expr", "Literal", "Neg", "Triple", "TypedExpr", "to_source"),
    "lexer": ("ParseError", "Token", "tokenize"),
    "parser": ("parse",),
    "typecheck": ("Accepted", "ArgumentError", "Rejected", "TypeCheckError", "UnknownWordError", "type_check",
                  "validate_program"),
    "vocabulary": ("GrammarRule", "Param", "Vocabulary", "VocabularyError", "Word", "default_grammar",
                   "default_vocabulary", "vocabulary_from_json", "vocabulary_size"),
})
