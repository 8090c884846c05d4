"""Phrase-keyed part database with edit-distance matching.

Each entry is a set of key phrases (e.g. {cup opening, cup rim, cup edge}),
the first of which names the part. A description retrieves the entry whose
key phrase has the least Levenshtein distance; ties break by entry index,
then by the lexicographically smaller phrase, so results are reproducible.

Phrases are case-folded and whitespace-normalized before comparison; the
distance itself stays unnormalized, which favors short phrases; kept
deliberately, and documented so distances stay reproducible. The neural
few-shot mask mapper is out of scope; parts are segmented by an oracle that
reads labeled scene parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ManiplangError, MissingPartError
from .files import read_json, typed_value

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
    a = normalize_phrase(a)
    b = normalize_phrase(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # delete from a
                    current[j - 1] + 1,  # insert into a
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class PartEntry:
    key_phrases: tuple[str, ...]

    def __post_init__(self):
        if not self.key_phrases:
            raise RetrievalError("an entry needs at least one key phrase")


@dataclass(frozen=True)
class PartDatabase:
    entries: tuple[PartEntry, ...]


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
    distance, index, phrase = min(
        (levenshtein(desc, phrase), index, phrase)
        for index, entry in enumerate(db.entries)
        for phrase in entry.key_phrases
    )
    return RetrievalMatch(db.entries[index], index, phrase, distance)


def oracle_segment(scene: Scene, part_desc: str, db: PartDatabase) -> PointCloud:
    """Desk-scale segmenter: retrieval picks an entry, the entry's first key
    phrase picks the closest-named labeled scene part. Deterministic given
    identical inputs.

    Raises MissingPartError when either hop lands farther than
    MATCH_RATIO of the respective phrase's length.
    """
    match = retrieve(db, part_desc)
    if match.distance > MATCH_RATIO * len(normalize_phrase(match.matched_phrase)):
        raise MissingPartError(part_desc)
    phrase = match.entry.key_phrases[0]
    if not scene.parts:
        raise MissingPartError(part_desc)
    best_distance, best_name = min((levenshtein(phrase, name), name) for name in scene.parts)
    if best_distance > MATCH_RATIO * len(normalize_phrase(phrase)):
        raise MissingPartError(part_desc)
    return scene.parts[best_name]


def make_part_resolver(scene: Scene, db: PartDatabase) -> Callable[[str], PointCloud]:
    """EvalContext hook: resolve part descriptions through the database."""

    def resolver(name: str) -> PointCloud:
        if name in scene.parts:
            return scene.parts[name]
        return oracle_segment(scene, name, db)

    return resolver


def database_from_json(doc: dict) -> PartDatabase:
    try:
        entries = tuple(
            PartEntry(tuple(typed_value(entry["key_phrases"], str, "key_phrases", RetrievalError, depth=1)))
            for entry in doc["entries"]
        )
    except (KeyError, TypeError) as exc:
        raise RetrievalError(f"malformed database document: {exc}") from exc
    return PartDatabase(entries)


def load_database(path) -> PartDatabase:
    return database_from_json(read_json(path, RetrievalError))
