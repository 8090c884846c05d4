import dataclasses
import json
import random

import numpy as np
import pytest

from maniplang import fixtures, retrieval
from maniplang.costs import MissingPartError
from maniplang.geometry import Point3, PointCloud
from maniplang.retrieval import (
    MATCH_RATIO,
    EmptyDatabaseError,
    PartDatabase,
    PartEntry,
    RetrievalError,
    database_from_json,
    levenshtein,
    load_database,
    make_part_resolver,
    normalize_phrase,
    oracle_segment,
    retrieve,
)
from maniplang.scene import Scene, load_scene

from util import lev_complete_search, lev_enumerate, lev_table_oracle


class TestLevenshtein:
    def test_all_inserts(self):
        assert levenshtein("", "abc") == 3

    def test_identical(self):
        assert levenshtein("cup rim", "cup rim") == 0

    def test_kitten_sitting_matches_dp_oracle(self):
        assert lev_table_oracle("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_case_fold_and_whitespace_normalization(self):
        assert levenshtein("Cup  Rim", "cup rim") == 0

    def test_equals_full_table_oracle_on_random_pairs(self):
        rng = random.Random(4)
        for _ in range(500):
            a = "".join(rng.choice("abc") for _ in range(rng.randrange(9)))
            b = "".join(rng.choice("abc") for _ in range(rng.randrange(9)))
            assert levenshtein(a, b) == lev_table_oracle(a, b)

    def test_equals_full_table_oracle_past_one_machine_word(self):
        # Patterns up to ~100 characters need masks wider than 64 bits.
        rng = random.Random(8)
        for _ in range(200):
            a = "".join(rng.choice("abcd") for _ in range(rng.randrange(101)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randrange(101)))
            assert levenshtein(a, b) == lev_table_oracle(a, b)

    def test_equals_full_table_oracle_on_case_and_whitespace_runs(self):
        rng = random.Random(9)
        for _ in range(300):
            a, b = ("".join(rng.choice("aAbB \t\n") for _ in range(rng.randrange(40))) for _ in range(2))
            assert levenshtein(a, b) == lev_table_oracle(normalize_phrase(a), normalize_phrase(b))

    def test_case_folds_that_change_length(self):
        # "ß" folds to "ss" and "İ" to "i" plus a combining dot: two characters each.
        assert levenshtein("STRASSE", "straße") == 0
        assert levenshtein("ß", "s") == 1
        assert levenshtein("İ", "i") == 1
        rng = random.Random(10)
        for _ in range(300):
            a, b = ("".join(rng.choice("sSßiIİ ") for _ in range(rng.randrange(30))) for _ in range(2))
            assert levenshtein(a, b) == lev_table_oracle(normalize_phrase(a), normalize_phrase(b))

    def test_equals_complete_search_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(500):
            a = "".join(rng.choice("abc") for _ in range(rng.randrange(9)))
            b = "".join(rng.choice("abc") for _ in range(rng.randrange(9)))
            assert levenshtein(a, b) == lev_complete_search(a, b)

    def test_recursive_oracle_anchored_by_true_enumeration(self):
        strings = [""]
        for length in (1, 2, 3):
            strings += ["".join(s) for s in _all_strings("ab", length)]
        for a in strings:
            for b in strings:
                assert lev_complete_search(a, b) == lev_enumerate(a, b)

    def test_metric_axioms_on_random_triples(self):
        rng = random.Random(6)
        for _ in range(1000):
            a, b, c = (
                "".join(rng.choice("abc") for _ in range(rng.randrange(8)))
                for _ in range(3)
            )
            dab, dba = levenshtein(a, b), levenshtein(b, a)
            assert dab == dba
            assert (dab == 0) == (a == b)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)

    def test_upper_bound(self):
        rng = random.Random(7)
        for _ in range(300):
            a = "".join(rng.choice("abcde") for _ in range(rng.randrange(12)))
            b = "".join(rng.choice("abcde") for _ in range(rng.randrange(12)))
            assert levenshtein(a, b) <= max(len(a), len(b))


def _all_strings(alphabet, length):
    if length == 0:
        yield ()
        return
    for rest in _all_strings(alphabet, length - 1):
        for ch in alphabet:
            yield (ch,) + rest


class TestRetrieve:
    def db(self):
        return fixtures.build_part_database()

    def test_cup_opening_exact_match(self):
        match = retrieve(self.db(), "cup opening")
        assert match.distance == 0
        assert match.matched_phrase == "cup opening"
        assert set(match.entry.key_phrases) == {"cup opening", "cup rim", "cup edge"}

    def test_single_entry_database(self):
        db = PartDatabase((PartEntry(("anything",)),))
        assert retrieve(db, "whatever").entry_index == 0

    def test_teapot_lid_picks_spout_by_distance(self):
        db = self.db()
        match = retrieve(db, "teapot lid")
        # fixture asserts the oracle-computed distances behind the choice
        assert lev_table_oracle("teapot lid", "teapot opening") == 6
        assert lev_table_oracle("teapot lid", "teapot spout") == 5
        assert match.matched_phrase == "teapot spout"
        assert match.distance == 5

    def test_deterministic_and_total(self):
        db = self.db()
        first = retrieve(db, "drawer nob")
        for _ in range(100):
            again = retrieve(db, "drawer nob")
            assert (again.entry_index, again.matched_phrase, again.distance) == (
                first.entry_index,
                first.matched_phrase,
                first.distance,
            )

    def test_tie_breaks_by_entry_index_then_phrase(self):
        db = PartDatabase(
            (
                PartEntry(("ab", "ba")),
                PartEntry(("aa",)),
            )
        )
        match = retrieve(db, "ab")
        assert match.entry_index == 0 and match.matched_phrase == "ab"
        tie = retrieve(PartDatabase((PartEntry(("bb", "aa")),)), "ab")
        assert tie.matched_phrase == "aa"  # same distance; lexicographic wins

    def test_empty_database(self):
        with pytest.raises(EmptyDatabaseError):
            retrieve(PartDatabase(()), "anything")

    def test_equals_brute_force_table_scan(self):
        # Queries one or two edits from a shipped key phrase or scene part name,
        # against the shipped database and drawn ones full of equal lengths and
        # exact ties, where the length skip must not change the tie order.
        rng = random.Random(11)
        shipped = self.db()
        names = sorted(
            {p for e in shipped.entries for p in e.key_phrases}
            | {name for kind in fixtures.SCENE_KINDS for name in fixtures.make_scene(kind).parts}
        )
        databases = [shipped] + [
            PartDatabase(tuple(
                PartEntry(tuple(rng.choice(["ab", "ba", "aa", "Ab", "abc", "b", "a b", "bab"])
                                for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ))
            for _ in range(20)
        ]
        for k in range(500):
            db = databases[0] if k % 2 else rng.choice(databases[1:])
            query = list(rng.choice(names if k % 2 else ["ab", "ba", "abc", "b"]))
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(query) + 1)
                edit = rng.choice("isd")
                if edit == "i":
                    query.insert(i, rng.choice("ab eo"))
                elif i < len(query):
                    query[i : i + 1] = [] if edit == "d" else [rng.choice("ab eo")]
            query = "".join(query)
            match = retrieve(db, query)
            want = min(
                (lev_table_oracle(normalize_phrase(query), normalize_phrase(phrase)), index, phrase)
                for index, entry in enumerate(db.entries)
                for phrase in entry.key_phrases
            )
            assert (match.distance, match.entry_index, match.matched_phrase) == want, query


def _typo(rng, phrase: str) -> str:
    """`phrase` with one or two characters inserted, deleted or replaced."""
    chars = list(phrase)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.choice("isd")
        if edit == "i":
            chars.insert(i, rng.choice("ab eo"))
        elif i < len(chars):
            chars[i : i + 1] = [] if edit == "d" else [rng.choice("ab eo")]
    return "".join(chars)


def _first_key_scan(db: PartDatabase, desc: str) -> str | None:
    """The first key phrase of the entry holding the key phrase nearest `desc`
    (ties to the lower entry, then the smaller phrase), by a full-table scan;
    None where it lands too far."""
    query = normalize_phrase(desc)
    distance, index, phrase = min(
        (lev_table_oracle(query, normalize_phrase(phrase)), index, phrase)
        for index, entry in enumerate(db.entries)
        for phrase in entry.key_phrases
    )
    return None if distance > MATCH_RATIO * len(normalize_phrase(phrase)) else db.entries[index].key_phrases[0]


def _scene_part_scan(scene: Scene, key: str | None) -> str | None:
    """The scene part named nearest the key phrase (ties to the smaller name),
    by a full-table scan; None where there is no key, no part or it lands too far."""
    if key is None or not scene.parts:
        return None
    key = normalize_phrase(key)
    distance, name = min((lev_table_oracle(key, normalize_phrase(name)), name) for name in scene.parts)
    return None if distance > MATCH_RATIO * len(key) else name


class TestOracleSegment:
    def test_exact_part_name(self):
        scene = fixtures.make_scene("teapot_lid")
        cloud = oracle_segment(scene, "teapot opening", fixtures.build_part_database())
        assert cloud == scene.parts["teapot opening"]

    def test_typo_still_resolves(self):
        scene = fixtures.make_scene("teapot_lid")
        db = fixtures.build_part_database()
        assert levenshtein("teapot oppening", "teapot opening") == 1
        cloud = oracle_segment(scene, "teapot oppening", db)
        assert cloud == scene.parts["teapot opening"]

    def test_unknown_description_misses(self):
        scene = fixtures.make_scene("teapot_lid")
        with pytest.raises(MissingPartError):
            oracle_segment(scene, "unicorn horn", fixtures.build_part_database())

    @pytest.mark.parametrize("parts", [{}, {"zzz": "lid"}], ids=["no_parts", "second_hop_too_far"])
    def test_scene_without_a_close_name_misses(self, parts):
        # "teapot opening" is a key phrase, so only the hop from it to a scene part can miss.
        scene = fixtures.make_scene("teapot_lid")
        scene = dataclasses.replace(
            scene, parts={name: scene.parts[part] for name, part in parts.items()}, grasped=frozenset(), objects={}
        )
        with pytest.raises(MissingPartError, match="no part named 'teapot opening' in scene"):
            oracle_segment(scene, "teapot opening", fixtures.build_part_database())

    def test_segmenter_port_is_deterministic(self):
        scene = fixtures.make_scene("teapot_lid")
        db = fixtures.build_part_database()
        a = oracle_segment(scene, "teapot spout", db)
        b = oracle_segment(scene, "teapot spout", db)
        assert a == b

    def test_part_resolver_integration(self):
        scene = fixtures.make_scene("teapot_lid")
        resolver = make_part_resolver(scene, fixtures.build_part_database())
        assert resolver("lid") == scene.parts["lid"]
        assert resolver("teapot oppening") == scene.parts["teapot opening"]

    def test_a_resolver_builds_its_scene_name_table_once(self, monkeypatch):
        scene = fixtures.make_scene("teapot_lid")
        resolver = make_part_resolver(scene, fixtures.build_part_database())
        built = []
        monkeypatch.setattr(retrieval, "PartDatabase", lambda entries: built.append(entries) or PartDatabase(entries))
        assert resolver("teapot oppening") is scene.parts["teapot opening"]
        assert resolver("teapot spuot") is scene.parts["teapot spout"]
        assert built == []

    def test_a_resolver_segments_as_oracle_segment_does(self):
        # Every shipped scene, every key phrase of the shipped database and a
        # typo of each: the resolver's one name table finds what a table built
        # per call finds, or misses alike.
        rng = random.Random(5)
        db = fixtures.build_part_database()
        queries = [phrase for entry in db.entries for phrase in entry.key_phrases]
        queries += [_typo(rng, phrase) for phrase in queries]
        for kind in fixtures.SCENE_KINDS:
            scene = load_scene(fixtures.shipped_scene_path(kind))
            resolver = make_part_resolver(scene, db)
            for query in queries:
                if query in scene.parts:
                    continue
                try:
                    want = oracle_segment(scene, query, db)
                except MissingPartError:
                    with pytest.raises(MissingPartError):
                        resolver(query)
                else:
                    assert resolver(query) is want, (kind, query)

    def test_equals_a_brute_force_two_hop_scan(self):
        # Shipped scenes and drawn part-name sets, in drawn order: exact ties,
        # names that fold to the same phrase, and the empty scene. A hop that
        # lands too far must raise, and the part found must be that very cloud.
        rng = random.Random(12)
        shipped = [load_scene(fixtures.shipped_scene_path(kind)) for kind in fixtures.SCENE_KINDS]
        shipped_names = sorted({name for scene in shipped for name in scene.parts})
        pool = shipped_names + [name.upper() for name in shipped_names] + [f"{name} " for name in shipped_names]
        pool += ["ab", "AB", " ab", "a  b", "ba", "aa", "bb", "a", "b", "abc", "a b", "bab"]
        tiny_phrases = ["ab", "ba", "aa", "Ab", "abc", "b", "a b", "bab"]

        def drawn_scene() -> Scene:
            names = rng.sample(pool, rng.randint(0, 5))
            parts = {name: PointCloud(np.full((1, 3), float(k))) for k, name in enumerate(names)}
            return Scene(parts=parts, grasped=frozenset(), gripper_position=Point3(0.0, 0.0, 0.0),
                         gripper_open_fraction=1.0)

        def queries(db: PartDatabase, typos: int) -> list:
            phrases = [phrase for entry in db.entries for phrase in entry.key_phrases]
            drawn = ["".join(rng.choice("abAB eo") for _ in range(rng.randrange(6))) for _ in range(3)]
            return phrases + [_typo(rng, rng.choice(phrases)) for _ in range(typos)] + drawn

        # (database, queries, scenes): the shipped database on every shipped
        # scene and on drawn ones, then small drawn databases full of ties.
        cases = [(fixtures.build_part_database(), 40, shipped + [drawn_scene() for _ in range(15)])]
        for _ in range(40):
            db = PartDatabase(tuple(
                PartEntry(tuple(rng.choice(tiny_phrases) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ))
            cases.append((db, 6, [drawn_scene() for _ in range(3)]))
        outcomes = {True: 0, False: 0}
        for db, typos, scenes in cases:
            for query in queries(db, typos):
                key = _first_key_scan(db, query)
                for scene in scenes:
                    want = _scene_part_scan(scene, key)
                    outcomes[want is None] += 1
                    if want is None:
                        with pytest.raises(MissingPartError):
                            oracle_segment(scene, query, db)
                    else:
                        assert oracle_segment(scene, query, db) is scene.parts[want], (query, list(scene.parts))
        assert min(outcomes.values()) > 100, outcomes


class TestDatabaseIO:
    def test_json_round_trip(self):
        doc = json.loads(fixtures.shipped_part_database_path().read_text(encoding="utf-8"))
        db = database_from_json(doc)
        assert [list(entry.key_phrases) for entry in db.entries] == [e["key_phrases"] for e in doc["entries"]]

    def test_shipped_file_loads(self):
        db = load_database(fixtures.shipped_part_database_path())
        assert db.entries and db == fixtures.build_part_database()

    def test_malformed_document(self):
        with pytest.raises(RetrievalError):
            database_from_json({"entries": [{"support_pairs": []}]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "database document: missing entries"),
            ({"entries": 5}, "entries must be a JSON list, got 5"),
            ({"entries": [5]}, "entry 0 must be a JSON object, got 5"),
            ([1], r"database document must be a JSON object, got \[1\]"),
            ({"entries": [{}]}, "entry 0: missing key_phrases"),
            ({"entries": [{"key_phrases": ["cup"]}, {}]}, "entry 1: missing key_phrases"),
            ({"entries": [{"key_phrases": ["a"]}, {"key_phrases": []}]}, "entry 1: needs at least one key phrase"),
        ],
        ids=[
            "no_entries", "entries_a_number", "entry_a_number", "document_a_list", "entry_empty", "second_entry_empty",
            "second_entry_no_phrases",
        ],
    )
    def test_malformed_document_names_the_field(self, doc, message):
        with pytest.raises(RetrievalError, match=f"^{message}$"):
            database_from_json(doc)

    @pytest.mark.parametrize(
        "entry",
        [
            {"key_phrases": "cup"},
            {"key_phrases": [1, 2]},
        ],
        ids=["phrases_a_string", "phrases_not_strings"],
    )
    def test_entry_fields_must_be_strings(self, entry):
        with pytest.raises(RetrievalError, match="^entry 0 key_phrases must be a JSON list of str, got "):
            database_from_json({"entries": [entry]})

    def test_entry_requires_phrases(self):
        with pytest.raises(RetrievalError):
            PartEntry(())

    def test_extra_entry_keys_are_ignored(self):
        entry = {"key_phrases": ["cup"], "support_pairs": [{"image": 5}], "note": None}
        assert database_from_json({"entries": [entry]}) == PartDatabase((PartEntry(("cup",)),))

    def test_normalize(self):
        assert normalize_phrase("  Cup   Opening ") == "cup opening"
