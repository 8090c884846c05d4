"""Every loader and writer raises its own module's error for a bad file."""

import pytest

from maniplang import files, fixtures, metrics
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
