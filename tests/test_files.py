"""Every loader and writer raises its own module's error for a bad file, and
the two field readers every loader shares name the field at fault."""

import pytest

from maniplang import files, fixtures, metrics
from maniplang.errors import ManiplangError
from maniplang.fixtures import FixtureError
from maniplang.metrics import MetricsError, ProfileSchemaError, load_profiles
from maniplang.retrieval import RetrievalError, load_database
from maniplang.scene import SceneError, load_scene, save_scene

from util import unwritable_path


@pytest.mark.parametrize(
    "load, error",
    [
        (load_scene, SceneError),
        (load_database, RetrievalError),
        (load_profiles, ProfileSchemaError),
        (metrics.load_tasks, MetricsError),
        (fixtures.load_mock_translations, FixtureError),
    ],
    ids=["scene", "database", "profiles", "tasks", "mock_translations"],
)
@pytest.mark.parametrize(
    "content", [None, b"\xff\xfe", b"not json {"], ids=["missing", "bad_utf8", "bad_json"]
)
def test_unreadable_document_raises_callers_error(tmp_path, load, error, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(error):
        load(path)


def test_unwritable_outputs_raise_callers_error(tmp_path):
    target = unwritable_path(tmp_path)
    with pytest.raises(SceneError):
        save_scene(target, fixtures.make_scene("cube_target"))
    with pytest.raises(MetricsError):
        metrics.write_outputs([], target, tmp_path / "m.svg")
    with pytest.raises(FixtureError):
        fixtures.regen(target)
    for value in (float("inf"), float("nan")):  # not JSON
        with pytest.raises(SceneError, match="cannot write"):
            files.write_json(tmp_path / "doc.json", {"x": value}, SceneError)
    assert not (tmp_path / "doc.json").exists()


class DocumentError(ManiplangError):
    pass


@pytest.mark.parametrize(
    "value, kind, depth",
    [(1, int, 0), (False, bool, 0), ("", str, 0), ({}, dict, 0), (1.5, float, 0), (1, float, 0),
     (10**308, float, 0), ([[0, 1.5]], float, 2), ([], str, 1)],
    ids=["int", "bool", "str", "object", "float", "int_as_float", "large_int_as_float", "nested_lists", "empty_list"],
)
def test_typed_value_returns_a_value_of_its_kind(value, kind, depth):
    assert files.typed_value(value, kind, "x", DocumentError, depth) is value


@pytest.mark.parametrize(
    "value, kind, depth, message",
    [
        (True, int, 0, "x must be a JSON int, got True"),
        (True, float, 0, "x must be a JSON float, got True"),
        (1.0, int, 0, "x must be a JSON int, got 1.0"),
        (10**400, float, 0, "x must be a JSON float, got an int too large for a float"),
        ([[0, -10**400]], float, 2, "x must be a JSON list of list of float, got an int too large for a float"),
        ([1], dict, 0, "x must be a JSON object, got [1]"),
        ([[0], 1], float, 2, "x must be a JSON list of list of float, got 1"),
        ([[0], ["a"]], float, 2, "x must be a JSON list of list of float, got 'a'"),
        ("a", str, 1, "x must be a JSON list of str, got 'a'"),
        ("a" * 50, int, 0, f"x must be a JSON int, got '{'a' * 36}..."),
        (10**5000, str, 0, "x must be a JSON str, got a value too long to print"),
    ],
    ids=["bool_as_int", "bool_as_float", "float_as_int", "int_too_large", "nested_int_too_large", "list_as_object",
         "depth_too_shallow", "nested_str_as_float", "str_as_list", "long_value_cut", "unprintable_int"],
)
def test_typed_value_names_the_value_it_refuses(value, kind, depth, message):
    with pytest.raises(DocumentError) as err:
        files.typed_value(value, kind, "x", DocumentError, depth)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "holder, default, expected",
    [({"k": 0}, (), 0), ({"k": None}, (5,), None), ({}, (None,), None), ({}, (False,), False)],
    ids=["present", "present_with_default", "absent_default_none", "absent_default_false"],
)
def test_member_reads_a_field_or_its_default(holder, default, expected):
    assert files.member(holder, "k", "x", DocumentError, *default) is expected


@pytest.mark.parametrize(
    "holder, default, message",
    [
        ({"j": 1}, (), "x: missing k"),
        ([["k", 1]], (), "x must be a JSON object, got [['k', 1]]"),
        ("k", (0,), "x must be a JSON object, got 'k'"),
        (None, (0,), "x must be a JSON object, got None"),
    ],
    ids=["absent", "holder_a_list", "holder_a_string_with_default", "holder_null_with_default"],
)
def test_member_refuses_an_absent_field_or_a_holder_not_an_object(holder, default, message):
    with pytest.raises(DocumentError) as err:
        files.member(holder, "k", "x", DocumentError, *default)
    assert str(err.value) == message
