import dataclasses
import io
import json
import os
import socket
import subprocess
import sys
import urllib.request
from types import SimpleNamespace

import pytest

from maniplang import fixtures, pipeline, solver
from maniplang.cli import main
from maniplang.geometry import PointCloud
from maniplang.language import parse
from maniplang.pipeline import PipelineConfig
from maniplang.scene import save_scene
from maniplang.solver import SolveConfig

from util import unwritable_path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "maniplang", *args], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def scene_path():
    return str(fixtures.shipped_scene_path("cube_target"))


class TestParseCommand:
    def test_accepts_valid_file(self, tmp_path):
        source = tmp_path / "program.txt"
        source.write_text("gripper_open_cost()\n", encoding="utf-8")
        assert main(["parse", str(source)]) == 0

    def test_rejects_invalid_file(self, tmp_path, capsys):
        # An unknown word, a digit that is not ASCII, a literal past the
        # float range, and nesting past the parser's depth bound.
        for text in ("fly_to('moon')", "²", "1e309", "(" * 10_000 + "0" + ")" * 10_000):
            source = tmp_path / "program.txt"
            source.write_text(text + "\n", encoding="utf-8")
            assert main(["parse", str(source)]) == 2, text
            assert capsys.readouterr().err.startswith("rejected: "), text

    def test_prints_a_string_holding_a_double_quote_in_single_quotes(self, tmp_path, capsys):
        source = tmp_path / "program.txt"
        source.write_text("move_cost('a\"b', 'c')\n", encoding="utf-8")
        assert main(["parse", str(source)]) == 0
        printed = capsys.readouterr().out.splitlines()[1]
        assert printed == 'move_cost(\'a"b\', "c")'
        assert parse(printed) == parse(source.read_text(encoding="utf-8"))

    def test_reads_stdin_with_dash(self):
        result = subprocess.run(
            [sys.executable, "-m", "maniplang", "parse", "-"],
            input="gripper_close_first_cost()\n",
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "accepted" in result.stdout

    def test_bad_utf8_on_stdin_fails_as_in_a_file(self, tmp_path):
        path = tmp_path / "program.txt"
        path.write_bytes(b"\xff")
        from_file = subprocess.run([sys.executable, "-m", "maniplang", "parse", str(path)], capture_output=True)
        from_stdin = subprocess.run([sys.executable, "-m", "maniplang", "parse", "-"], input=b"\xff", capture_output=True)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_stdin.stderr.startswith(b"error: cannot read stdin: 'utf-8' codec can't decode byte 0xff")
        assert from_file.stderr == from_stdin.stderr.replace(b"stdin", str(path).encode(), 1)

    def test_non_ascii_part_name_reads_the_same_from_stdin_and_a_file(self, tmp_path):
        # Latin-1 standard streams: stdin is still read as UTF-8, like a file.
        program = "move_cost(get_centroid('tasse à café'), get_centroid('target'))\n".encode("utf-8")
        path = tmp_path / "program.txt"
        path.write_bytes(program)
        env = {**os.environ, "PYTHONIOENCODING": "latin-1"}
        from_file = subprocess.run([sys.executable, "-m", "maniplang", "parse", str(path)], capture_output=True, env=env)
        from_stdin = subprocess.run(
            [sys.executable, "-m", "maniplang", "parse", "-"], input=program, capture_output=True, env=env
        )
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_stdin.stdout == from_file.stdout
        assert "tasse à café".encode("latin-1") in from_stdin.stdout


class TestEvalCommand:
    def test_evaluates_cost(self, scene_path, capsys):
        code = main(["eval", "--scene", scene_path,
                     "--expr", "move_cost(get_centroid('cube'), get_centroid('cube'))"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_missing_part_is_runtime_failure(self, scene_path):
        code = main(["eval", "--scene", scene_path,
                     "--expr", "move_cost(get_centroid('ghost'), [0,0,0])"])
        assert code == 3

    OVERFLOW = "move_cost(get_centroid('cube'), [0, 0, 1e308] + [0, 0, 1e308])"

    @pytest.mark.parametrize(
        "command, expr",
        [
            ("eval", "parallel_cost(get_axis('dot'), [0, 0, 1])"),
            ("eval", "parallel_cost(direction_of('cube', 'cube'), [0, 0, 1])"),
            ("eval", "rotate_cost([0, 0, 0], 1, [0, 0, 1])"),
            ("eval", OVERFLOW),
            ("solve", OVERFLOW),
            ("eval", "parallel_cost(get_axis('huge'), get_axis('cube'))"),
        ],
        ids=["degenerate_axis", "coincident_direction", "zero_rotate_axis", "overflow", "solve_overflow",
             "covariance_overflow"],
    )
    def test_degenerate_geometry_and_overflow_are_runtime_failures(self, tmp_path, capsys, command, expr):
        cube = fixtures.make_scene("cube_target")
        dot = PointCloud([(0.1, 0.1, 0.1)] * 5)  # every point coincides: no axis
        huge = PointCloud([(1e200, 1e200, 1e200), (-1e200, -1e200, -1e200)])  # finite, squares are not
        parts = {**cube.parts, "dot": dot, "huge": huge}
        save_scene(tmp_path / "scene.json", dataclasses.replace(cube, parts=parts))
        assert main([command, "--scene", str(tmp_path / "scene.json"), "--expr", expr]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_bad_expression_is_validation_failure(self, scene_path):
        assert main(["eval", "--scene", scene_path, "--expr", "nonsense("]) == 2

    def test_void_action_not_evaluable(self, scene_path, capsys):
        for command in ("eval", "solve"):
            assert main([command, "--scene", scene_path, "--expr", "gripper_open()"]) == 2
            assert capsys.readouterr().err.startswith("rejected: ")

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "not json {",
            json.dumps({"parts": 5}),
            json.dumps({"parts": {"a": {"points": []}}, "gripper": {"position": [0, 0, 0], "open_fraction": 0}}),
            json.dumps({"parts": {}, "gripper": {"position": [float("nan"), 0, 0], "open_fraction": 0}}),
            json.dumps({"parts": {}, "gripper": {"position": [0, 0, 0], "open_fraction": "0.5"}}),
            json.dumps({"parts": {}, "gripper": {"position": [0, 0, 0], "open_fraction": True}}),
            json.dumps({"parts": {}, "gripper": {"position": [True, False, 0], "open_fraction": 0}}),
            json.dumps({"parts": {"a": {"points": [[True, 0, 0]]}}, "gripper": {"position": [0, 0, 0], "open_fraction": 0}}),
            json.dumps({"parts": {"a": {"points": [["1", "2", "3"]]}}, "gripper": {"position": [0, 0, 0], "open_fraction": 0}}),
            json.dumps({"parts": {}, "gripper": {"position": [0, 0, 0], "open_fraction": 0},
                        "history": [{"gripper": [0, True, 0], "parts": {}}]}),
            json.dumps({"parts": {" ": {"points": [[0, 0, 0]], "grasped": True}, "table": {"points": [[1, 0, 0]]}},
                        "gripper": {"position": [0, 0, 0], "open_fraction": 0}}),
            json.dumps({"parts": {"a": {"points": [[0, 10**400, 0]]}},
                        "gripper": {"position": [0, 0, 0], "open_fraction": 0}}),
        ],
        ids=["missing_file", "not_json", "parts_not_a_map", "empty_points", "nan_gripper",
             "open_fraction_a_string", "open_fraction_a_bool", "position_of_bools", "points_of_bools",
             "points_of_strings", "history_gripper_of_bools", "blank_part_name", "integer_too_large_for_a_float"],
    )
    def test_unreadable_scene_is_validation_failure(self, tmp_path, capsys, content):
        path = tmp_path / "scene.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = main(["eval", "--scene", str(path), "--expr", "gripper_open_cost()"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSolveCommand:
    def test_emits_result_json(self, scene_path):
        result = run_cli(
            "solve", "--scene", scene_path,
            "--expr", "move_cost(get_centroid('cube'), get_centroid('target'))",
            "--restarts", "2", "--max-iterations", "400",
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["cost_term"] < 1e-3
        assert len(doc["pose"]["rotation"]) == 9

    def test_no_moving_parts_exits_three(self, tmp_path):
        from maniplang.scene import save_scene
        scene = fixtures.make_scene("pen_holder")
        import dataclasses
        ungrasped = dataclasses.replace(scene, grasped=frozenset())
        path = tmp_path / "scene.json"
        save_scene(path, ungrasped)
        result = run_cli(
            "solve", "--scene", str(path),
            "--expr", "parallel_cost(get_axis('pen'), get_axis('pen holder'))",
        )
        assert result.returncode == 3


    def test_non_finite_weight_exits_three(self, scene_path):
        code = main(["solve", "--scene", scene_path,
                     "--expr", "move_cost(get_centroid('cube'), get_centroid('target'))",
                     "--alpha", "nan"])
        assert code == 3


class TestRetrieveCommand:
    def test_prints_index_phrase_distance(self, tmp_path):
        db_path = fixtures.shipped_part_database_path()
        result = run_cli("retrieve", "--db", str(db_path), "--desc", "cup opening")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc == {"entry_index": 0, "matched_phrase": "cup opening", "distance": 0}


class TestFixturesCommand:
    def test_regen_writes_tree(self, tmp_path):
        result = run_cli("fixtures", "regen", "--out", str(tmp_path / "data"))
        assert result.returncode == 0
        assert (tmp_path / "data" / "tasks_33.json").exists()
        assert (tmp_path / "data" / "profiles" / "seam.json").exists()
        assert (tmp_path / "data" / "scenes" / "pen_holder.json").exists()


class TestRunCommand:
    def test_trace_to_stdout(self, scene_path):
        result = run_cli(
            "run", "--scene", scene_path,
            "--instruction", "move the cube above the target", "--client", "mock",
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["success"] is True

    def test_remote_without_endpoint_fails_cleanly(self, scene_path, monkeypatch):
        monkeypatch.delenv("MANIPLANG_REMOTE_URL", raising=False)
        code = main(["run", "--scene", scene_path, "--instruction", "x",
                     "--client", "remote"])
        assert code == 2

    def test_remote_endpoint_down_fails_cleanly(self, scene_path, capsys):
        with socket.socket() as sock:  # bind then close: nothing listens on the port
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # A closed port, and an endpoint that is not a URL at all.
        for endpoint in (f"http://127.0.0.1:{port}/", "notaurl"):
            code = main(["run", "--scene", scene_path, "--instruction", "x",
                         "--client", "remote", "--endpoint", endpoint])
            assert code == 2, endpoint
            assert capsys.readouterr().err.startswith("error: "), endpoint

    def test_remote_program_not_a_string_fails_cleanly(self, scene_path, monkeypatch, capsys):
        body = json.dumps({"program": 5}).encode("utf-8")  # a stub endpoint: no network
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
        code = main(["run", "--scene", scene_path, "--instruction", "x",
                     "--client", "remote", "--endpoint", "http://stub"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_custom_fixture_map(self, scene_path, tmp_path, capsys):
        fixture_map = tmp_path / "map.json"
        fixture_map.write_text(
            json.dumps({"hold still": "move_cost('gripper', get_gripper_pos())"}),
            encoding="utf-8",
        )
        code = main(["run", "--scene", scene_path, "--instruction", "hold still",
                     "--client", "mock", "--fixtures", str(fixture_map),
                     "--restarts", "2", "--max-iterations", "300"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True


BAD_UTF8 = b"\xff\xfe not utf-8"


def _file(tmp_path, name, content):
    """A path under tmp_path holding `content` (bytes or text); None leaves it absent."""
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    return str(path)


_SCENE = str(fixtures.shipped_scene_path("cube_target"))
_PROFILES = str(fixtures.shipped_profiles_dir())
_TASKS = str(fixtures.shipped_tasks_path())


def _profile(rule=None, task_ids=range(1, 34), word=None, **fields):
    """A profile document, valid but for the given rule, task ids, word or top-level fields."""
    doc = {
        "name": "p",
        "words": [{"name": "w", "params": [{"name": "x", "sort": "point"}], "result_sort": "cost"}],
        "rules": [rule or {"lhs": "cost", "rhs": ["cost", "+", "cost"]}],
        "task_outcomes": [{"task_id": i, "verdict": "correct and sufficient"} for i in task_ids],
        **fields,
    }
    doc["words"].append({"name": "v", "result_sort": "cost", **(word or {})})
    return json.dumps(doc)


def _metrics_on_profile(t, text):
    return ["metrics", "--profiles", _file(t, "p.json", text), "--tasks", _TASKS,
            "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")]


def test_valid_profile_helper_passes(tmp_path):
    assert main(_metrics_on_profile(tmp_path, _profile())) == 0


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda t: ["parse", _file(t, "p.txt", None)],
        lambda t: ["parse", _file(t, "p.txt", BAD_UTF8)],
        lambda t: ["retrieve", "--db", _file(t, "db.json", None), "--desc", "cup"],
        lambda t: ["retrieve", "--db", _file(t, "db.json", BAD_UTF8), "--desc", "cup"],
        lambda t: ["metrics", "--profiles", str(t / "absent"), "--tasks", _TASKS,
                   "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")],
        lambda t: ["metrics", "--profiles", _file(t, "p.json", BAD_UTF8), "--tasks", _TASKS,
                   "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")],
        lambda t: _metrics_on_profile(t, _profile(task_ids=("one",))),
        lambda t: _metrics_on_profile(t, _profile(task_ids=(1, 1, 1, 1, 1, 99))),
        lambda t: _metrics_on_profile(t, _profile(task_ids=(1, 99))),
        lambda t: _metrics_on_profile(t, _profile(task_ids=range(1, 11))),
        lambda t: _metrics_on_profile(t, _profile(word={"name": ["v"]})),
        lambda t: _metrics_on_profile(t, _profile(word={"alias_of": ["w"]})),
        lambda t: _metrics_on_profile(t, _profile(word={"params": [{"name": 1, "sort": "point"}]})),
        lambda t: _metrics_on_profile(
            t, _profile(word={"params": [{"name": "x", "sort": "point", "required": "no"}]})
        ),
        lambda t: _metrics_on_profile(t, _profile(has_host_escape="no")),
        lambda t: _metrics_on_profile(t, _profile(rule={"rhs": ["cost"]})),
        lambda t: _metrics_on_profile(t, _profile(rule={"lhs": "cost", "rhs": 5})),
        lambda t: _metrics_on_profile(t, _profile(rule={"lhs": "cost", "rhs": "cost"})),
        lambda t: _metrics_on_profile(t, _profile(task_outcomes=5)),
        lambda t: _metrics_on_profile(t, _profile(task_outcomes=None)),
        lambda t: _metrics_on_profile(t, _profile(task_outcomes="abc")),
        lambda t: ["metrics", "--profiles", _PROFILES, "--tasks", _file(t, "t.json", None),
                   "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")],
        lambda t: ["metrics", "--profiles", _PROFILES, "--tasks", _file(t, "t.json", "{}"),
                   "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")],
        lambda t: ["metrics", "--profiles", _PROFILES,
                   "--tasks", _file(t, "t.json", '{"tasks": 5}'),
                   "--csv", str(t / "m.csv"), "--svg", str(t / "m.svg")],
        lambda t: ["metrics", "--profiles", _PROFILES, "--tasks", _TASKS,
                   "--csv", str(unwritable_path(t)), "--svg", str(t / "m.svg")],
        lambda t: ["run", "--scene", _SCENE, "--instruction", "x",
                   "--fixtures", _file(t, "map.json", None)],
        lambda t: ["run", "--scene", _SCENE, "--instruction", "x",
                   "--fixtures", _file(t, "map.json", "[1, 2]")],
        lambda t: ["run", "--scene", _SCENE, "--instruction", "x",
                   "--fixtures", _file(t, "map.json", BAD_UTF8)],
        lambda t: ["run", "--scene", _SCENE, "--instruction", fixtures.GARBAGE_INSTRUCTION,
                   "--out", str(unwritable_path(t))],
        lambda t: ["fixtures", "regen", "--out", str(t / "data"), "--seed", "-1"],
        lambda t: ["run", "--scene", _SCENE, "--instruction", "move the cube above the target",
                   "--threshold", "nan"],
        lambda t: ["run", "--scene", _SCENE, "--instruction", "move the cube above the target",
                   "--threshold", "-1"],
    ],
    ids=[
        "parse_missing", "parse_bad_utf8",
        "retrieve_db_missing", "retrieve_db_bad_utf8",
        "metrics_profiles_missing_dir", "metrics_profiles_bad_utf8",
        "metrics_profile_task_id_not_int", "metrics_profile_task_id_repeated",
        "metrics_profile_task_id_not_a_task", "metrics_profile_tasks_missing",
        "metrics_profile_word_name_a_list", "metrics_profile_alias_of_a_list",
        "metrics_profile_param_name_not_a_string", "metrics_profile_required_not_a_boolean",
        "metrics_profile_escape_not_a_boolean", "metrics_profile_rule_without_lhs",
        "metrics_profile_rhs_not_a_list", "metrics_profile_rhs_a_string",
        "metrics_profile_outcomes_a_number", "metrics_profile_outcomes_null", "metrics_profile_outcomes_a_string",
        "metrics_tasks_missing", "metrics_tasks_empty_object", "metrics_tasks_not_a_list",
        "metrics_csv_unwritable",
        "run_fixtures_missing", "run_fixtures_not_an_object", "run_fixtures_bad_utf8",
        "run_out_unwritable", "regen_negative_seed", "run_threshold_nan", "run_threshold_negative",
    ],
)
def test_bad_file_input_or_output_is_validation_failure(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


_SOLVE_FLAGS = ("--alpha", "0.3", "--beta", "0.07", "--max-iterations", "123",
                "--restarts", "3", "--tolerance", "1e-05", "--seed", "42")
_FLAGGED = SolveConfig(alpha=0.3, beta=0.07, max_iterations=123, restarts=3, tolerance=1e-5, seed=42)


@pytest.mark.parametrize("flags, expected", [((), SolveConfig()), (_SOLVE_FLAGS, _FLAGGED)],
                         ids=["defaults", "every_flag"])
def test_solve_flags_reach_the_solve_config(monkeypatch, capsys, flags, expected):
    assert all(getattr(_FLAGGED, f.name) != f.default for f in dataclasses.fields(SolveConfig))
    seen = []

    def record(cfg, **result):
        seen.append(cfg)
        return SimpleNamespace(dumps=lambda: "{}", **result)

    monkeypatch.setattr(solver, "solve", lambda typed, scene, cfg: record(cfg))
    monkeypatch.setattr(pipeline, "run_task", lambda text, scene, client, cfg: record(cfg, success=True, stages=()))
    expr = "move_cost(get_centroid('cube'), get_centroid('target'))"
    assert main(["solve", "--scene", _SCENE, "--expr", expr, *flags]) == 0
    assert main(["run", "--scene", _SCENE, "--instruction", "x", *flags]) == 0
    assert seen == [expected, PipelineConfig(solve=expected)]


def test_fixtures_regen_seed_defaults_to_the_fixture_seed(monkeypatch, tmp_path):
    seeds = []
    monkeypatch.setattr(fixtures, "regen", lambda out, seed: seeds.append(seed) or [])
    assert main(["fixtures", "regen", "--out", str(tmp_path)]) == 0
    assert seeds == [fixtures.DEFAULT_SEED] == [7]


@pytest.mark.parametrize("command", ["solve", "run"])
def test_help_lists_every_solve_flag(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    text = capsys.readouterr().out
    for field in dataclasses.fields(SolveConfig):
        assert f"--{field.name.replace('_', '-')} {field.name.upper()}" in text


def _metrics_argv(tmp_path) -> list:
    return ["metrics", "--profiles", str(fixtures.shipped_profiles_dir()), "--tasks",
            str(fixtures.shipped_tasks_path()), "--csv", str(tmp_path / "m.csv"), "--svg", str(tmp_path / "m.svg")]


def _in_one_process(argvs: list, modules: list) -> list:
    """[exit codes, the `modules` loaded] after `main` runs each argv in one fresh interpreter."""
    code = (
        "import json, sys\n"
        "from maniplang.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        f"print(json.dumps([codes, sorted(set({modules!r}) & set(sys.modules))]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestColdStart:
    def test_parse_retrieve_and_metrics_load_no_numpy(self, tmp_path):
        program = tmp_path / "program.txt"
        program.write_text("move_cost(get_centroid('cube'), get_centroid('target'))\n", encoding="utf-8")
        argvs = [
            ["parse", str(program)],
            ["retrieve", "--db", str(fixtures.shipped_part_database_path()), "--desc", "cup rim"],
            _metrics_argv(tmp_path),
        ]
        assert _in_one_process(argvs, ["numpy"]) == [[0, 0, 0], []]

    def test_metrics_loads_no_lexer_parser_or_checker(self, tmp_path):
        unused = [f"maniplang.language.{name}" for name in ("lexer", "parser", "typecheck")]
        assert _in_one_process([_metrics_argv(tmp_path)], unused) == [[0], []]

    def test_eval_solve_and_regen_load_no_http_client(self, tmp_path):
        expr = "move_cost(get_centroid('cube'), get_centroid('target'))"
        argvs = [
            ["eval", "--scene", _SCENE, "--expr", expr],
            ["solve", "--scene", _SCENE, "--expr", expr, "--restarts", "1", "--max-iterations", "50"],
            ["fixtures", "regen", "--out", str(tmp_path / "data")],
        ]
        assert _in_one_process(argvs, ["http.client", "urllib.request"]) == [[0, 0, 0], []]

    def test_every_public_name_resolves_and_is_listed(self):
        import maniplang
        import maniplang.language

        for package in (maniplang, maniplang.language):
            for name in package.__all__:
                assert getattr(package, name) is not None, name
            assert set(package.__all__) <= set(dir(package))
        assert maniplang.evaluate is maniplang.costs.evaluate
        assert maniplang.parse is maniplang.language.parse
