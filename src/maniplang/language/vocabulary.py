"""The fixed manipulation vocabulary and composition grammar.

Words carry a parameter signature and a result sort; `centroid` is a second
surface spelling of `get_centroid` (one word, two names). The grammar rules
cover infix composition and the literal coercions; call typing comes from
the word signatures. Both are defined here, in code. Profile documents, the
rival word lists among them, are edited as JSON data and all load through
`vocabulary_from_json`; the shipped `profiles/seam.json` must match these
two, which a test checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ManiplangError
from ..files import typed_value
from .ast import SORTS


class VocabularyError(ManiplangError):
    field = "words"  # the top-level field of a vocabulary document at fault


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


def make_word(name, params, result, alias_of=None) -> Word:
    """A word whose parameters are `Param`s or (name, sort) pairs."""
    return Word(name, tuple(Param(*p) if isinstance(p, tuple) else p for p in params), result, alias_of)


def default_vocabulary() -> Vocabulary:
    """The full 20-word vocabulary: the core table plus the template words."""
    s, p, v, c = "string", "point", "vec", "cost"
    return Vocabulary(
        [
            make_word("get_axis", [("part", s)], v),
            make_word("get_centroid", [("part", s)], p),
            make_word("centroid", [("part", s)], p, alias_of="get_centroid"),
            make_word("centroid_last", [("part", s)], p),
            make_word("get_height", [("part", s)], "scalar"),
            make_word("get_width", [("part", s)], "scalar"),
            make_word("get_length", [("part", s)], "scalar"),
            make_word("get_gripper_pos", [], p),
            make_word("direction_of", [("start", s), ("end", s)], v),
            make_word("move_cost", [("source", p), ("target", p), Param("offset", v, required=False)], c),
            make_word("move_cost_with_offset", [("part", s), ("offset", v)], c),
            make_word("parallel_cost", [("first", v), ("second", v)], c),
            make_word("perpendicular_cost", [("first", v), ("second", v)], c),
            make_word("rotate_cost", [("axis", v), ("angle", "scalar"), ("reference", v)], c),
            make_word("orbit_cost", [("center_part", s), ("radius", "scalar"), ("moving_part", s)], c),
            make_word("upright_cost", [("up_part", s), ("down_part", s)], c),
            make_word("gripper_open_cost", [], c),
            make_word("gripper_close_first_cost", [], c),
            make_word("gripper_open", [], "void"),
            make_word("gripper_close", [], "void"),
        ]
    )


def default_grammar() -> tuple[GrammarRule, ...]:
    """Composition and coercion rules consulted by the type checker.

    Binary rules read lhs <- (left, op, right); unary negation is
    ("scalar", ("-", "scalar")); single-element rules are coercions,
    e.g. a part-name string may stand where a point is expected.
    """
    r = GrammarRule
    return (
        r("scalar", ("scalar", "+", "scalar")),
        r("scalar", ("scalar", "-", "scalar")),
        r("scalar", ("scalar", "*", "scalar")),
        r("scalar", ("-", "scalar")),
        r("point", ("point", "+", "point")),
        r("point", ("point", "-", "point")),
        r("point", ("point", "+", "vec")),
        r("point", ("point", "-", "vec")),
        r("vec", ("vec", "+", "vec")),
        r("vec", ("vec", "-", "vec")),
        r("vec", ("vec", "*", "scalar")),
        r("cost", ("cost", "+", "cost")),
        r("point", ("string",)),
        r("point", ("triple",)),
        r("vec", ("triple",)),
        r("cost", ("number",)),
    )


def _field(entry: dict, key: str, kind: type, *default, depth: int = 0):
    """entry[key], a `kind` inside `depth` lists; `default`, if one is given, for an absent key."""
    if default and key not in entry:
        return default[0]
    return typed_value(entry[key], kind, key, VocabularyError, depth)


def vocabulary_from_json(doc: dict) -> tuple[Vocabulary, tuple[GrammarRule, ...]]:
    """Word and parameter names and `alias_of` must be strings, `required` and
    `has_host_escape` booleans. An error's `field` names the top-level field
    it is in."""
    field = "has_host_escape"
    try:
        has_host_escape = _field(doc, "has_host_escape", bool, False)
        field = "rules"
        rules = tuple(
            GrammarRule(entry["lhs"], tuple(_field(entry, "rhs", str, depth=1)))
            for entry in doc.get("rules", [])
        )
        field = "words"
        words = [
            Word(
                _field(entry, "name", str),
                tuple(
                    Param(_field(p, "name", str), p["sort"], _field(p, "required", bool, True))
                    for p in entry.get("params", [])
                ),
                entry["result_sort"],
                _field(entry, "alias_of", str, None),
            )
            for entry in doc["words"]
        ]
        return Vocabulary(words, has_host_escape), rules
    except (KeyError, TypeError, VocabularyError) as exc:
        if not isinstance(exc, VocabularyError):
            exc = VocabularyError(f"malformed vocabulary document: {exc}")
        exc.field = field
        raise exc
