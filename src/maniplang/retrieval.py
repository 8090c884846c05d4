"""Phrase-keyed part database with edit-distance matching.

Each entry is a set of key phrases (e.g. {cup opening, cup rim, cup edge}),
the first of which names the part. A description retrieves the entry whose
key phrase has the least Levenshtein distance; ties break by entry index,
then by the lexicographically smaller phrase, so results are reproducible.

Phrases are case-folded and whitespace-normalized before comparison; the
distance itself stays unnormalized, which favors short phrases; kept
deliberately, and documented so distances stay reproducible.

The distance is computed by the bit-vector recurrence of Myers (J. ACM
1999), in the Levenshtein form of Hyyrö (2003): one column of the edit
table is held as two bit masks of +1/-1 steps down the pattern, and each
character of the text advances it with a few integer operations. A
database builds its phrases' character masks once, when it is made, and
`retrieve` normalizes the query once and skips a phrase whose length
differs from the query's by more than the best distance found so far.
Distances and tie-breaks are those of the full edit table.

The neural few-shot mask mapper is out of scope: an oracle segments parts by a
second `retrieve`, over the scene's part names; ties go to the smaller name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import ManiplangError, MissingPartError
from .files import member, read_json, typed_value

if TYPE_CHECKING:
    from .geometry import PointCloud
    from .scene import Scene

MATCH_RATIO = 0.6  # of the matched phrase's length


class RetrievalError(ManiplangError):
    pass


class EmptyDatabaseError(RetrievalError):
    pass


def normalize_phrase(text: str) -> str:
    return " ".join(text.casefold().split())


def levenshtein(a: str, b: str) -> int:
    """Minimum insert/delete/substitute edits, unit costs, after folding."""
    b = normalize_phrase(b)
    return _distance(_char_masks(b), len(b), normalize_phrase(a))


def _char_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[c] is set where pattern[i] == c."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | 1 << i
    return masks


def _distance(masks: dict[str, int], m: int, text: str) -> int:
    """Edit distance between `text` and the m-character pattern of `masks`.

    pv and mv mark the rows where the current column of the edit table
    steps +1 and -1 going down the pattern; `score` is its bottom cell.
    Carries run only upward, so bits above the pattern never reach `top`;
    but Python's ~ makes negative ints and the shifts widen them, so pv is
    masked back to m bits each step to keep the ints small (mv is an and
    with a masked value).
    """
    if not m:
        return len(text)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ph << 1 | 1  # row 0 of the table steps +1 per text character
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return score


@dataclass(frozen=True)
class PartEntry:
    key_phrases: tuple[str, ...]

    def __post_init__(self):
        if not self.key_phrases:
            raise RetrievalError("an entry needs at least one key phrase")


@dataclass(frozen=True)
class PartDatabase:
    entries: tuple[PartEntry, ...]
    # (entry index, phrase, folded length, char masks) per key phrase, in order.
    _patterns: tuple[tuple[int, str, int, dict[str, int]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        patterns = []
        for index, entry in enumerate(self.entries):
            for phrase in entry.key_phrases:
                folded = normalize_phrase(phrase)
                patterns.append((index, phrase, len(folded), _char_masks(folded)))
        object.__setattr__(self, "_patterns", tuple(patterns))


@dataclass(frozen=True)
class RetrievalMatch:
    entry: PartEntry
    entry_index: int
    matched_phrase: str
    distance: int


def retrieve(db: PartDatabase, desc: str) -> RetrievalMatch:
    """Entry holding the globally minimum-distance key phrase for `desc`."""
    if not db.entries:
        raise EmptyDatabaseError("cannot retrieve from an empty database")
    query = normalize_phrase(desc)
    n = len(query)
    best = (float("inf"), 0, "")
    for index, phrase, m, masks in db._patterns:
        if abs(m - n) > best[0]:  # the distance is at least the length difference
            continue
        candidate = (_distance(masks, m, query), index, phrase)
        if candidate < best:
            best = candidate
    distance, index, phrase = best
    return RetrievalMatch(db.entries[index], index, phrase, distance)


def oracle_segment(scene: Scene, part_desc: str, db: PartDatabase, names: PartDatabase | None = None) -> PointCloud:
    """Desk-scale segmenter: retrieval picks an entry, then a `retrieve` of its
    first key phrase over `names`, the table of the scene's part names (built
    here unless given), picks the labeled part; ties go to the smaller name.
    Deterministic given identical inputs.

    Raises MissingPartError when either hop lands farther than
    MATCH_RATIO of the respective phrase's length.
    """
    match = retrieve(db, part_desc)
    if match.distance > MATCH_RATIO * len(normalize_phrase(match.matched_phrase)) or not scene.parts:
        raise MissingPartError(part_desc)
    phrase = match.entry.key_phrases[0]
    part = retrieve(names or _scene_names(scene), phrase)
    if part.distance > MATCH_RATIO * len(normalize_phrase(phrase)):
        raise MissingPartError(part_desc)
    return scene.parts[part.matched_phrase]


def _scene_names(scene: Scene) -> PartDatabase:
    """The segmenter's table: one single-phrase entry per part name, sorted."""
    return PartDatabase(tuple(PartEntry((name,)) for name in sorted(scene.parts)))


def make_part_resolver(scene: Scene, db: PartDatabase) -> Callable[[str], PointCloud]:
    """EvalContext hook: resolve part descriptions through the database and one name table."""
    names = _scene_names(scene)

    def resolver(name: str) -> PointCloud:
        if name in scene.parts:
            return scene.parts[name]
        return oracle_segment(scene, name, db, names)

    return resolver


def database_from_json(doc) -> PartDatabase:
    """The part database of a JSON document; each error is a RetrievalError naming its field."""
    entries = []
    listed = member(doc, "entries", "database document", RetrievalError)
    for i, entry in enumerate(typed_value(listed, list, "entries", RetrievalError)):
        phrases = member(entry, "key_phrases", f"entry {i}", RetrievalError)
        typed_value(phrases, str, f"entry {i} key_phrases", RetrievalError, 1)
        if not phrases:
            raise RetrievalError(f"entry {i}: needs at least one key phrase")
        entries.append(PartEntry(tuple(phrases)))
    return PartDatabase(tuple(entries))


def load_database(path) -> PartDatabase:
    return database_from_json(read_json(path, RetrievalError))
