import csv
import io
import json
import xml.dom.minidom

import pytest

from maniplang import fixtures, metrics
from maniplang.language.vocabulary import Vocabulary, Word
from maniplang.metrics import (
    MetricsError,
    MetricsRow,
    ProfileSchemaError,
    RepresentationProfile,
    TaskOutcome,
    ZeroTasksError,
    action_generalizability,
    compute_rows,
    judge_verdict,
    load_profiles,
    profile_from_json,
    rows_to_csv,
    rows_to_svg,
    success_count,
    vlm_comprehensibility,
)


def _profile(word_count, successes=0, failures=0, escape=False, name="m"):
    words = [Word(f"w{i}", (), "void") for i in range(word_count)]
    outcomes = tuple(
        TaskOutcome(i + 1, "correct") for i in range(successes)
    ) + tuple(
        TaskOutcome(successes + i + 1, "insufficient") for i in range(failures)
    )
    return RepresentationProfile(name, Vocabulary(words, escape), outcomes)


class TestActionGeneralizability:
    def test_formula_boundary_equal_counts(self):
        assert action_generalizability(_profile(33), 33) == 0.0

    def test_core_table_over_thirtythree(self):
        value = action_generalizability(_profile(11), 33)
        assert abs(value - 22 / 33) < 1e-12

    def test_empty_vocabulary_is_one(self):
        assert action_generalizability(_profile(0), 33) == 1.0

    def test_negative_when_words_exceed_tasks(self):
        assert action_generalizability(_profile(40), 33) < 0.0

    def test_strictly_decreasing_in_vocab_size(self):
        values = [action_generalizability(_profile(n), 33) for n in range(0, 40, 3)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_identity_with_ratio(self):
        for n in (0, 5, 11, 33, 50):
            profile = _profile(n)
            assert action_generalizability(profile, 33) + n / 33 == 1.0

    def test_zero_tasks(self):
        with pytest.raises(ZeroTasksError):
            action_generalizability(_profile(5), 0)

    def test_escape_is_flag_not_word(self):
        with_escape = _profile(6, escape=True)
        assert with_escape.core_size() == 6
        assert with_escape.size_with_escape() == 7
        assert action_generalizability(with_escape, 33) == action_generalizability(
            _profile(6), 33
        )


class TestVlmComprehensibility:
    def test_all_successes(self):
        assert vlm_comprehensibility(_profile(1, successes=33)) == 1.0

    def test_no_successes(self):
        assert vlm_comprehensibility(_profile(1, failures=33)) == 0.0

    def test_bounded(self):
        for s, f in ((1, 2), (10, 5), (0, 7)):
            value = vlm_comprehensibility(_profile(1, successes=s, failures=f))
            assert 0.0 <= value <= 1.0

    def test_empty_outcomes_error(self):
        with pytest.raises(ZeroTasksError):
            vlm_comprehensibility(_profile(3))

    def test_judgment_corpus_hand_counts(self):
        expected = {"seam": 23, "omnimanip": 19, "instruct2act": 27, "rekep": 24}
        profiles = {p.name: p for p in load_profiles(fixtures.shipped_profiles_dir())}
        for method, count in expected.items():
            assert len(profiles[method].task_outcomes) == 33
            assert success_count(profiles[method]) == count

    def test_only_full_verdicts_count(self):
        assert judge_verdict("Correct and sufficient")
        assert judge_verdict("success")
        assert not judge_verdict("partial success")
        assert not judge_verdict("partially correct but insufficient")
        assert not judge_verdict("incorrect")


class TestProfiles:
    def test_shipped_seam_profile_has_twenty_words(self):
        profiles = {p.name: p for p in load_profiles(fixtures.shipped_profiles_dir())}
        assert profiles["seam"].core_size() == 20

    def test_shipped_core_profile_has_eleven_words(self):
        profiles = {p.name: p for p in load_profiles(fixtures.shipped_profiles_dir())}
        assert profiles["seam_core"].core_size() == 11
        ag = action_generalizability(profiles["seam_core"], 33)
        assert abs(ag - 22 / 33) < 1e-12

    def test_omnimanip_words(self):
        profiles = {p.name: p for p in load_profiles(fixtures.shipped_profiles_dir())}
        names = {w.name for w in profiles["omnimanip"].vocabulary.words}
        assert {"get_keypoint", "get_axis", "move_to"} <= names

    def test_escape_flags(self):
        profiles = {p.name: p for p in load_profiles(fixtures.shipped_profiles_dir())}
        assert profiles["rekep"].vocabulary.has_host_escape
        assert profiles["instruct2act"].vocabulary.has_host_escape
        assert not profiles["seam"].vocabulary.has_host_escape

    def test_empty_file_is_schema_error(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("", encoding="utf-8")
        with pytest.raises(ProfileSchemaError):
            load_profiles(bad)

    def test_schema_error_names_field_path(self):
        with pytest.raises(ProfileSchemaError) as err:
            profile_from_json({"name": "x", "words": [], "task_outcomes": [{}]}, source="x")
        assert "task_outcomes[0]" in str(err.value)

    def test_round_trip_through_serialization(self):
        for path in sorted(fixtures.shipped_profiles_dir().glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            loaded = load_profiles(path)[0]
            assert loaded.name == doc["name"]
            assert [w.name for w in loaded.vocabulary.words] == [
                w["name"] for w in doc["words"]
            ]
            assert len(loaded.task_outcomes) == len(doc["task_outcomes"])

    def test_repeated_task_id_is_schema_error(self):
        outcomes = [{"task_id": 1, "verdict": "correct"}, {"task_id": 1, "verdict": "correct"}]
        with pytest.raises(ProfileSchemaError, match=r"x\.task_outcomes\[1\]\.task_id"):
            profile_from_json({"name": "x", "words": [], "task_outcomes": outcomes}, source="x")

    def test_success_is_judged_from_the_verdict(self):
        # A stored "success" flag is not read: the verdict alone decides.
        outcomes = [{"task_id": 1, "verdict": "insufficient", "success": True}]
        profile = profile_from_json({"name": "x", "words": [], "task_outcomes": outcomes})
        assert vlm_comprehensibility(profile) == 0.0
        assert compute_rows([profile], 1)[0].n_succ == 0

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"has_host_escape": "no"}, "x.has_host_escape must be a JSON bool, got 'no'"),
            ({"rules": [{"rhs": ["cost"]}]}, "x.rules[0]: missing lhs"),
            ({"rules": [{"lhs": "cost", "rhs": "cost"}]}, "x.rules[0].rhs must be a JSON list of str, got 'cost'"),
            ({"words": [{"name": ["w"], "result_sort": "cost"}]}, "x.words[0].name must be a JSON str, got ['w']"),
            ({"task_outcomes": 5}, "x.task_outcomes must be a JSON list, got 5"),
            ({"task_outcomes": None}, "x.task_outcomes must be a JSON list, got None"),
            ({"task_outcomes": "abc"}, "x.task_outcomes must be a JSON list, got 'abc'"),
            ({"words": {"a": 1}}, "x.words must be a JSON list, got {'a': 1}"),
        ],
    )
    def test_schema_error_names_the_field_at_fault(self, fields, message):
        with pytest.raises(ProfileSchemaError) as err:
            profile_from_json({"name": "x", "words": [], **fields}, source="x")
        assert str(err.value) == message

    def test_missing_words_key(self):
        with pytest.raises(ProfileSchemaError) as err:
            profile_from_json({"name": "x"}, source="x")
        assert str(err.value) == "x: missing words"


class TestOutputs:
    def rows(self):
        profiles = load_profiles(fixtures.shipped_profiles_dir())
        return compute_rows(profiles, 33)

    def test_csv_layout(self):
        csv = rows_to_csv(self.rows())
        lines = csv.strip().splitlines()
        assert lines[0] == "method,vocab_size,vocab_size_with_escape,ag,n_succ,vc"
        assert len(lines) == 6
        seam_core = next(line for line in lines if line.startswith("seam_core,"))
        assert seam_core == "seam_core,11,11,0.666667,23,0.696970"

    def test_csv_and_svg_deterministic(self):
        rows = self.rows()
        assert rows_to_csv(rows) == rows_to_csv(self.rows())
        assert rows_to_svg(rows) == rows_to_svg(self.rows())

    def test_svg_contains_every_method(self):
        svg = rows_to_svg(self.rows())
        assert svg.startswith("<svg")
        for name in ("seam", "seam_core", "rekep", "omnimanip", "instruct2act"):
            assert f">{name}</text>" in svg

    def test_method_name_is_escaped_in_both_outputs(self):
        name = 'R&D <v2>, "beta"'
        rows = compute_rows([_profile(1, successes=33, name=name)], 33)
        records = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        assert [len(record) for record in records] == [6, 6]
        assert records[1][0] == name
        texts = xml.dom.minidom.parseString(rows_to_svg(rows)).getElementsByTagName("text")
        assert name in [text.firstChild.data for text in texts]

    @pytest.mark.parametrize("task_id", [0, 34, 99])
    def test_task_outside_the_task_list_is_rejected(self, task_id):
        profile = RepresentationProfile("m", Vocabulary([]), (TaskOutcome(task_id, "correct"),))
        with pytest.raises(MetricsError, match=f"task {task_id} is not in 1..33"):
            compute_rows([profile], 33)

    def test_task_without_an_outcome_is_rejected(self):
        # VC is N_succ / T: ten correct outcomes out of 33 tasks is no 1.0.
        with pytest.raises(MetricsError, match="task 11 has no outcome"):
            compute_rows([_profile(1, successes=10)], 33)
        assert compute_rows([_profile(1, successes=10, failures=23)], 33)[0].vc == 10 / 33

    def test_success_counts_match_rows(self):
        for row in self.rows():
            assert isinstance(row, MetricsRow)
            assert 0.0 <= row.vc <= 1.0
            assert row.n_succ <= 33


def _tasks(task_ids):
    """A task-list document with one entry per id."""
    return {"tasks": [{"task_id": i, "title": "t", "instruction": "i"} for i in task_ids]}


class TestTaskCorpus:
    def test_exactly_thirty_three(self):
        assert len(metrics.load_tasks(fixtures.shipped_tasks_path())) == 33

    def test_titles_match_corpus(self):
        titles = [t.title for t in metrics.load_tasks(fixtures.shipped_tasks_path())]
        assert titles[0] == "Sort the Red Cube"
        assert titles[10] == "Push the Dice"
        assert titles[32] == "Plug in the Lamp"
        assert len(set(titles)) == 33

    def test_ids_are_sequential(self):
        assert [t.task_id for t in metrics.load_tasks(fixtures.shipped_tasks_path())] == list(range(1, 34))

    def test_judgments_cover_all_tasks(self):
        for profile in load_profiles(fixtures.shipped_profiles_dir()):
            assert [o.task_id for o in profile.task_outcomes] == list(range(1, 34)), profile.name

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"tasks": [{"task_id": "one", "title": 1, "instruction": None}]},
             "tasks[0].task_id must be a JSON int, got 'one'"),
            ({"tasks": [{"task_id": True, "title": "t", "instruction": "i"}]},
             "tasks[0].task_id must be a JSON int, got True"),
            ({"tasks": [{"task_id": 1, "title": 1, "instruction": "i"}]}, "tasks[0].title must be a JSON str, got 1"),
            ({"tasks": [{"task_id": 1, "title": "t", "instruction": None}]},
             "tasks[0].instruction must be a JSON str, got None"),
            ({"tasks": [{"task_id": 1, "title": "t", "instruction": "i"}, {"task_id": 2, "title": "t"}]},
             "tasks[1]: missing instruction"),
            ({"tasks": [{"task_id": 1, "title": "t", "instruction": "i"}, 5]},
             "tasks[1] must be a JSON object, got 5"),
            ({"tasks": 3}, "tasks must be a JSON list, got 3"),
            ({}, "missing tasks"),
            ([1], "tasks document must be a JSON object, got [1]"),
            (_tasks([7] * 33), "tasks[1].task_id: task 7 is listed twice"),
            (_tasks([40, *range(2, 34)]), "tasks[0].task_id: task 40 is not in 1..33"),
        ],
        ids=[
            "all_mistyped", "task_id_a_bool", "title_a_number", "instruction_null", "second_task_no_instruction",
            "second_task_a_number", "tasks_a_number", "no_tasks", "document_a_list", "task_listed_twice",
            "task_outside_the_list",
        ],
    )
    def test_mistyped_task_field_is_metrics_error(self, tmp_path, doc, message):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(metrics.MetricsError) as err:
            metrics.load_tasks(path)
        assert str(err.value) == f"{path}: {message}"
