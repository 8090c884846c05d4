"""The manipulation vocabulary and composition grammar.

Words carry a parameter signature and a result sort; `centroid` is a second
surface spelling of `get_centroid` (one word, two names). The grammar rules
cover infix composition and the literal coercions; call typing comes from
the word signatures. Every profile document, SEAM's and the rival word lists
alike, is edited as JSON data and loads through `vocabulary_from_json`.
SEAM's words and rules are read once, at import, from the shipped
`profiles/seam.json`, the profile the metrics score; they exist nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ManiplangError
from ..files import DATA_ROOT, member, read_json, typed_value
from .ast import SORTS


class VocabularyError(ManiplangError):
    pass


@dataclass(frozen=True)
class Param:
    name: str
    sort: str
    required: bool = True


@dataclass(frozen=True)
class Word:
    name: str
    params: tuple[Param, ...]
    result_sort: str
    alias_of: str | None = None

    def __post_init__(self):
        if self.result_sort not in SORTS:
            raise VocabularyError(f"word {self.name}: unknown result sort {self.result_sort!r}")
        for p in self.params:
            if p.sort not in SORTS:
                raise VocabularyError(f"word {self.name}: unknown parameter sort {p.sort!r}")


@dataclass(frozen=True)
class GrammarRule:
    """lhs <- rhs, where rhs is a sequence of sorts and terminal symbols."""

    lhs: str
    rhs: tuple[str, ...]

    def __post_init__(self):
        if self.lhs not in SORTS:
            raise VocabularyError(f"rule lhs {self.lhs!r} is not a sort")
        if not self.rhs:
            raise VocabularyError("rule rhs must be non-empty")


class Vocabulary:
    """Word set with unique names plus an optional host-language escape flag.

    The escape flag marks vocabularies that additionally allow arbitrary
    host code; such words are never enumerated or executed here, the flag
    only feeds the metrics module.
    """

    def __init__(self, words, has_host_escape: bool = False):
        self.words: tuple[Word, ...] = tuple(words)
        self.has_host_escape = bool(has_host_escape)
        self._by_name: dict[str, Word] = {}
        for word in self.words:
            if word.name in self._by_name:
                raise VocabularyError(f"duplicate word name {word.name!r}")
            self._by_name[word.name] = word
        for word in self.words:
            if word.alias_of is not None and word.alias_of not in self._by_name:
                raise VocabularyError(f"{word.name!r} aliases unknown word {word.alias_of!r}")

    def lookup(self, name: str) -> Word | None:
        """Resolve a surface name to its canonical word (following aliases)."""
        word = self._by_name.get(name)
        if word is not None and word.alias_of is not None:
            return self._by_name[word.alias_of]
        return word


def vocabulary_size(vocab: Vocabulary) -> int:
    """|V| as used by the generalizability metric; the escape set is a flag,
    never counted."""
    return len(vocab.words)


def vocabulary_from_json(
    doc, source: str = "vocabulary", error: type[ManiplangError] = VocabularyError
) -> tuple[Vocabulary, tuple[GrammarRule, ...]]:
    """The words and rules of the vocabulary document named `source`. Names,
    sorts and `alias_of` must be strings, `required` and `has_host_escape`
    booleans; a field's error names its path, as in `seam.words[3].name`, and
    a word's or rule's own check follows `source: `."""
    escape = typed_value(member(doc, "has_host_escape", source, error, False), bool, f"{source}.has_host_escape", error)
    rules = []
    for i, entry in enumerate(typed_value(member(doc, "rules", source, error, []), list, f"{source}.rules", error)):
        where = f"{source}.rules[{i}]"
        rules.append((
            typed_value(member(entry, "lhs", where, error), str, f"{where}.lhs", error),
            tuple(typed_value(member(entry, "rhs", where, error), str, f"{where}.rhs", error, 1)),
        ))
    words = []
    for i, entry in enumerate(typed_value(member(doc, "words", source, error), list, f"{source}.words", error)):
        where = f"{source}.words[{i}]"
        name = typed_value(member(entry, "name", where, error), str, f"{where}.name", error)
        params = []
        for j, p in enumerate(typed_value(member(entry, "params", where, error, []), list, f"{where}.params", error)):
            at = f"{where}.params[{j}]"
            params.append(Param(
                typed_value(member(p, "name", at, error), str, f"{at}.name", error),
                typed_value(member(p, "sort", at, error), str, f"{at}.sort", error),
                typed_value(member(p, "required", at, error, True), bool, f"{at}.required", error),
            ))
        result_sort = typed_value(member(entry, "result_sort", where, error), str, f"{where}.result_sort", error)
        alias_of = member(entry, "alias_of", where, error, None)
        if alias_of is not None:
            typed_value(alias_of, str, f"{where}.alias_of", error)
        words.append((name, tuple(params), result_sort, alias_of))
    try:
        rules = tuple(GrammarRule(*rule) for rule in rules)
        return Vocabulary([Word(*word) for word in words], escape), rules
    except VocabularyError as exc:
        raise error(f"{source}: {exc}") from None


_SEAM_VOCABULARY, _SEAM_GRAMMAR = vocabulary_from_json(
    read_json(DATA_ROOT / "profiles" / "seam.json", VocabularyError), "seam"
)


def default_vocabulary() -> Vocabulary:
    """SEAM's 20 words; every caller shares this one instance."""
    return _SEAM_VOCABULARY


def default_grammar() -> tuple[GrammarRule, ...]:
    """Composition and coercion rules consulted by the type checker.

    Binary rules read lhs <- (left, op, right); unary negation is
    ("scalar", ("-", "scalar")); single-element rules are coercions,
    e.g. a part-name string may stand where a point is expected.
    """
    return _SEAM_GRAMMAR
