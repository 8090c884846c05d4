import dataclasses
import io
import json
import math
import re
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maniplang import fixtures
from maniplang.language.typecheck import Accepted, validate_program
from maniplang.pipeline import (
    MockClient,
    PipelineConfig,
    PipelineError,
    RemoteClient,
    TranslationFailedError,
    build_prompt,
    instantiate_template,
    run_task,
    scene_summary,
    split_stages,
)
from maniplang.solver import SolveConfig

from util import single_part_scene


def mock_client():
    return MockClient(fixtures.load_mock_translations())


def _template(description):
    return next(a.template for a in fixtures.default_prompt_template().atomic_actions if a.description == description)


class SequenceClient:
    """Answers the n-th translate call with the n-th answer; keeps each prompt."""

    def __init__(self, answers):
        self.answers = iter(answers)
        self.prompts = []

    def translate(self, instruction, scene_summary, prompt):
        self.prompts.append(prompt)
        return next(self.answers)


class TestPrompt:
    def test_contains_all_six_template_headers(self):
        template = fixtures.default_prompt_template()
        prompt = build_prompt("do something", fixtures.make_scene("pen_holder"), template)
        assert len(template.atomic_actions) == 6
        for action in template.atomic_actions:
            assert f"## {action.description}" in prompt

    def test_empty_scene_inventory(self):
        from maniplang.scene import Scene
        from maniplang.geometry import Point3

        empty = Scene(
            parts={}, grasped=frozenset(), gripper_position=Point3(0, 0, 0),
            gripper_open_fraction=1.0,
        )
        prompt = build_prompt("x", empty, fixtures.default_prompt_template())
        assert "(no parts)" in prompt

    def test_inventory_sorted_lexicographically(self):
        scene = fixtures.make_scene("teapot_lid")
        prompt = build_prompt("x", scene, fixtures.default_prompt_template())
        names = sorted(scene.parts)
        positions = [prompt.index(f"- {name}") for name in names]
        assert positions == sorted(positions)

    def test_deterministic(self):
        scene = fixtures.make_scene("cube_target")
        template = fixtures.default_prompt_template()
        assert build_prompt("a", scene, template) == build_prompt("a", scene, template)

    def test_instantiate_template(self):
        text = instantiate_template(
            "move_cost_with_offset('<source object part>', offset=[0, 0, <z>])",
            {"source object part": "cube", "z": "0.14"},
        )
        assert text == "move_cost_with_offset('cube', offset=[0, 0, 0.14])"
        assert isinstance(validate_program(text), Accepted)


class TestStageSplitting:
    def test_single_stage(self):
        assert split_stages("gripper_open_cost()") == ["gripper_open_cost()"]

    def test_multi_stage(self):
        stages = split_stages("a()\n---\nb()\n---\nc()")
        assert stages == ["a()", "b()", "c()"]

    def test_blank_and_separator_only(self):
        assert split_stages("\n---\n\n") == []

    @staticmethod
    def reference_split(candidate: str) -> list[str]:
        """The line-by-line loop split_stages once was."""
        stages: list[str] = []
        current: list[str] = []
        for line in candidate.splitlines():
            if line.strip() == "---":
                if current:
                    stages.append("\n".join(current).strip())
                    current = []
                continue
            current.append(line)
        if current and "\n".join(current).strip():
            stages.append("\n".join(current).strip())
        return [stage for stage in stages if stage]

    @settings(max_examples=500, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from(["---", " --- ", "\t---", "--", "----", "---x", "", "  ", "a()", "b() + c()"])
            | st.text(alphabet=" -\tab()\r\x0b\x1c\u2028", max_size=6)
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_matches_the_reference_loop(self, lines, newline):
        candidate = newline.join(lines)
        assert split_stages(candidate) == self.reference_split(candidate)


class TestPipelineConfig:
    @pytest.mark.parametrize("value", ["x", None, True, 1j])
    def test_rejects_a_threshold_that_is_not_a_real_number(self, value):
        message = f"^success_threshold must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(PipelineError, match=message):
            PipelineConfig(success_threshold=value)

    @pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf, 10**400])
    def test_rejects_a_threshold_that_is_negative_or_not_finite(self, value):
        with pytest.raises(PipelineError):
            PipelineConfig(success_threshold=value)

    def test_keeps_a_numpy_float_as_a_python_float(self):
        cfg = PipelineConfig(success_threshold=np.float32(0.25))
        assert type(cfg.success_threshold) is float and cfg == PipelineConfig(success_threshold=0.25)


class TestRunTask:
    def test_pen_task_trace(self):
        scene = fixtures.make_scene("pen_holder")
        trace = run_task("put the pen into the penholder", scene, mock_client())
        assert trace.success
        assert len(trace.stages) == 1
        stage = trace.stages[0]
        assert "parallel_cost" in stage.program and "move_cost" in stage.program
        assert stage.residual < 1e-2

    def test_garbage_client_three_rejections(self):
        scene = fixtures.make_scene("cube_target")
        with pytest.raises(TranslationFailedError) as err:
            run_task(fixtures.GARBAGE_INSTRUCTION, scene, mock_client())
        trace = err.value.trace
        assert len(trace.attempts) == 3
        assert all(not a.accepted for a in trace.attempts)
        assert trace.stages == ()  # a rejected candidate never reaches the solver
        assert not trace.success

    def test_empty_candidates_are_reprompted(self):
        scene = single_part_scene("cube", [(0, 0, 0)])
        for answer in ("", "---\n---"):
            with pytest.raises(TranslationFailedError) as err:
                run_task("x", scene, MockClient({"x": answer}))
            assert [(a.accepted, a.reason) for a in err.value.trace.attempts] == [(False, "empty candidate")] * 3

    def test_each_attempt_and_reprompt_recorded(self):
        client = SequenceClient(["nonsense(", "", "gripper_open()"])
        trace = run_task("x", fixtures.make_scene("cube_target"), client)
        attempts = [(a.accepted, a.reason) for a in trace.attempts]
        assert attempts[0][0] is False and attempts[0][1].startswith("ParseError: ")
        assert attempts[1:] == [(False, "empty candidate"), (True, None)]
        assert client.prompts[1].endswith(f"\nThe previous answer was rejected: {attempts[0][1]}\nPlease fix it.\n")
        assert client.prompts[2].endswith("\nThe previous answer was empty. Reply with one cost expression.\n")
        assert trace.success

    def test_stage_that_raises_ends_and_fails_the_run(self):
        scene = fixtures.make_scene("cube_target")
        program = (
            "move_cost(get_centroid('cube'), get_centroid('target'), offset=[0, 0, 0.1])\n---\n"
            "parallel_cost(get_axis('target'), [0, 0, 1])\n---\ngripper_open()"
        )
        trace = run_task("x", scene, MockClient({"x": program}))
        assert [s.kind for s in trace.stages] == ["solve", "solve"]  # the gripper stage never runs
        assert trace.stages[0].residual < 1e-2 and trace.stages[1].error is not None
        assert json.loads(trace.dumps())["stages"][1]["residual"] is None
        assert trace.final_state["gripper"]["open_fraction"] == scene.gripper_open_fraction
        assert not trace.success

    def test_carrot_knife_residual(self):
        scene = fixtures.make_scene("carrot_knife")
        cfg = PipelineConfig(solve=SolveConfig(beta=0.01), success_threshold=1e-2)
        trace = run_task("cut the carrot with the knife", scene, mock_client(), cfg)
        assert trace.success
        assert trace.stages[-1].residual < 1e-3

    def test_multi_stage_with_gripper_release(self):
        scene = fixtures.make_scene("cube_target")
        trace = run_task("lift the cube and release it", scene, mock_client())
        kinds = [s.kind for s in trace.stages]
        assert kinds == ["solve", "gripper"]
        assert trace.final_state["gripper"]["open_fraction"] == 1.0
        assert trace.final_state["grasped"] == []
        assert trace.success

    def test_gripper_open_releases_the_grasped_part(self):
        # The released cube no longer rides with the gripper, so nothing can move it.
        scene = fixtures.make_scene("cube_target")
        program = "gripper_open()\n---\nmove_cost(get_centroid('cube'), get_centroid('target'))"
        trace = run_task("x", scene, MockClient({"x": program}))
        assert [s.kind for s in trace.stages] == ["gripper", "solve"]
        assert "nothing grasped moves" in trace.stages[1].error
        assert trace.final_state["grasped"] == []
        assert not trace.success

    def test_gripper_close_closes_and_keeps_the_grasp(self):
        scene = dataclasses.replace(fixtures.make_scene("cube_target"), gripper_open_fraction=0.6)
        trace = run_task("x", scene, MockClient({"x": "gripper_close()"}))
        assert [(s.program, s.kind, s.residual) for s in trace.stages] == [("gripper_close()", "gripper", 0.0)]
        assert trace.final_state["gripper"]["open_fraction"] == 0.0
        assert trace.final_state["grasped"] == ["cube"]
        assert trace.success

    def test_release_template_releases_the_cube(self):
        trace = run_task("x", fixtures.make_scene("cube_target"), MockClient({"x": _template("release something only")}))
        assert [s.kind for s in trace.stages] == ["gripper"]
        assert trace.success
        assert trace.final_state["grasped"] == []

    def test_push_template_solves_under_the_threshold(self):
        program = instantiate_template(_template("push to close something after grasped"),
                                       {"target object part": "target", "offset distance": "0.15"})
        trace = run_task("x", fixtures.make_scene("cube_target"), MockClient({"x": program}))
        assert [s.kind for s in trace.stages] == ["solve"]
        assert trace.stages[0].residual < PipelineConfig().success_threshold
        assert trace.success

    def test_replays_are_byte_identical(self):
        scene = fixtures.make_scene("pen_holder")
        cfg = PipelineConfig(solve=SolveConfig(seed=3))
        a = run_task("put the pen into the penholder", scene, mock_client(), cfg).dumps()
        b = run_task("put the pen into the penholder", scene, mock_client(), cfg).dumps()
        assert a == b

    def test_accepted_programs_revalidate(self):
        scene = fixtures.make_scene("cube_target")
        trace = run_task("move the cube above the target", scene, mock_client())
        for attempt in trace.attempts:
            if attempt.accepted:
                for stage_text in split_stages(attempt.program):
                    assert isinstance(validate_program(stage_text), Accepted)

    def test_trace_serializes(self):
        scene = fixtures.make_scene("cube_target")
        trace = run_task("move the cube above the target", scene, mock_client())
        doc = json.loads(trace.dumps())
        assert doc["instruction"] == "move the cube above the target"
        assert doc["attempts"][0]["verdict"] == "accepted"
        assert doc["stages"][0]["solve"]["iterations"] >= 1
        assert "part_centroids" in doc["final_state"]

    def test_solver_errors_recorded_not_thrown(self):
        scene = single_part_scene("pen", [(0, 0, 0), (0, 0, 0.1), (0, 0, 0.2)])
        client = MockClient({"align": "parallel_cost(get_axis('pen'), get_axis('pen'))"})
        # nothing grasped and the expression needs the pen to move
        trace = run_task("align", scene, client)
        assert trace.stages[0].error is not None
        assert not trace.success

    def test_mock_client_unknown_instruction(self):
        with pytest.raises(PipelineError):
            mock_client().translate("unmapped", "", "")

    def test_scene_summary_mentions_grasped(self):
        scene = fixtures.make_scene("pen_holder")
        summary = scene_summary(scene)
        assert "pen" in summary and "grasped" in summary


class TestRemoteClient:
    def test_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("MANIPLANG_REMOTE_URL", raising=False)
        with pytest.raises(PipelineError):
            RemoteClient()

    def test_endpoint_from_environment(self, monkeypatch):
        monkeypatch.setenv("MANIPLANG_REMOTE_URL", "http://localhost:9/translate")
        client = RemoteClient()
        assert client.endpoint == "http://localhost:9/translate"

    def test_explicit_endpoint_wins(self, monkeypatch):
        monkeypatch.setenv("MANIPLANG_REMOTE_URL", "http://env")
        assert RemoteClient(endpoint="http://arg").endpoint == "http://arg"

    def test_program_must_be_a_string(self, monkeypatch):
        # A stub endpoint: no network.
        def reply(program):
            body = json.dumps({"program": program}).encode("utf-8")
            monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))

        client = RemoteClient(endpoint="http://stub")
        reply("gripper_open_cost()")
        assert client.translate("x", "", "") == "gripper_open_cost()"
        for program in (5, None):
            reply(program)
            with pytest.raises(PipelineError, match="program"):
                client.translate("x", "", "")

    @pytest.mark.parametrize("body", [b"not json {", b'["gripper_open_cost()"]', b'{"programme": "x"}'],
                             ids=["not_json", "array", "no_program"])
    def test_reply_without_a_program_object_fails(self, body, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))  # no network
        with pytest.raises(PipelineError):
            RemoteClient(endpoint="http://stub").translate("x", "", "")
