"""End-to-end task runner.

A task run asks a translation client for a candidate program (reference
prompt attached), validates it against the grammar, reprompts with the
rejection reason up to twice, then solves accepted stages one by one,
moving the grasped parts after each solve. Gripper open/close stages skip
the continuous solve and set the open fraction directly; opening also
releases the grasped parts, so later stages no longer carry them.

Runs are deterministic with the mock client and a fixed seed: the trace
serializes byte-identically across repeats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Mapping, Protocol

from . import files, fixtures
from .errors import ManiplangError
from .language.typecheck import validate_program
from .scene import Scene
from .solver import SolveConfig, SolveResult, config_number, partition_moving_static, solve, transform_scene

REMOTE_URL_ENV = "MANIPLANG_REMOTE_URL"
REMOTE_TIMEOUT_S = 30.0
STAGE_SEPARATOR = "---"
MAX_ATTEMPTS = 3  # the first translation plus two reprompts


class PipelineError(ManiplangError):
    pass


class TranslationFailedError(PipelineError):
    """Raised after the reprompt budget is spent; carries the partial trace."""

    def __init__(self, message: str, trace: "TaskTrace"):
        super().__init__(message)
        self.trace = trace


def instantiate_template(text: str, values: Mapping[str, str]) -> str:
    """Substitute `<placeholder>` markers; unknown markers are left intact so
    validation flags them."""
    for key, value in values.items():
        text = text.replace(f"<{key}>", str(value))
    return text


def scene_summary(scene: Scene) -> str:
    parts = ", ".join(sorted(scene.parts)) or "(no parts)"
    grasped = ", ".join(sorted(scene.grasped)) or "(nothing)"
    return (
        f"parts: {parts}; grasped: {grasped}; "
        f"gripper open fraction: {scene.gripper_open_fraction:g}"
    )


def build_prompt(instruction: str, scene: Scene, template: fixtures.PromptTemplate) -> str:
    """Deterministic prompt: instruction, sorted part inventory, then the six
    atomic-action reference expressions with their guidance lines."""
    lines = [f"Instruction: {instruction}", "", "Scene parts:"]
    names = sorted(scene.parts)
    if names:
        lines.extend(f"- {name}" for name in names)
    else:
        lines.append("(no parts)")
    lines.append("")
    lines.append("Reference expressions for atomic actions:")
    for action in template.atomic_actions:
        lines.append("")
        lines.append(f"## {action.description}")
        lines.append(f"    {action.template}")
        lines.extend(f"    # {note}" for note in action.notes)
    return "\n".join(lines) + "\n"


class TranslationClient(Protocol):
    def translate(self, instruction: str, scene_summary: str, prompt: str) -> str: ...


class MockClient:
    """Table-driven client; responses come from a fixture map keyed by
    instruction, so replays are deterministic."""

    def __init__(self, responses: Mapping[str, str]):
        self.responses = dict(responses)

    def translate(self, instruction: str, scene_summary: str, prompt: str) -> str:
        try:
            return self.responses[instruction]
        except KeyError:
            raise PipelineError(f"mock client has no response for {instruction!r}") from None


class RemoteClient:
    """Minimal JSON-over-HTTP client: POST {instruction, scene_summary,
    prompt} and read back {"program": ...}. Endpoint comes from the
    constructor or the MANIPLANG_REMOTE_URL environment variable."""

    def __init__(self, endpoint: str | None = None):
        self.endpoint = endpoint or os.environ.get(REMOTE_URL_ENV, "")
        if not self.endpoint:
            raise PipelineError(
                f"remote client needs an endpoint (set {REMOTE_URL_ENV} or pass one)"
            )

    def translate(self, instruction: str, scene_summary: str, prompt: str) -> str:
        import http.client  # here, not at the top: only a remote run pays for them
        import urllib.request
        payload = json.dumps(
            {"instruction": instruction, "scene_summary": scene_summary, "prompt": prompt}
        ).encode("utf-8")
        try:
            request = urllib.request.Request(
                self.endpoint, data=payload, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT_S) as response:
                doc = json.loads(response.read().decode("utf-8"))
        # A bad URL or JSON is a ValueError, a bad host an HTTPException, URLError an OSError.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise PipelineError(f"remote endpoint {self.endpoint} failed: {exc}") from exc
        program = files.member(doc, "program", "remote response", PipelineError)
        return files.typed_value(program, str, "remote response field 'program'", PipelineError)


@dataclass(frozen=True)
class PipelineConfig:
    solve: SolveConfig = SolveConfig()
    success_threshold: float = 1e-2

    def __post_init__(self):
        threshold = config_number(self.success_threshold, "success_threshold", PipelineError)
        object.__setattr__(self, "success_threshold", threshold)
        if not 0.0 <= self.success_threshold < float("inf"):  # NaN fails too
            raise PipelineError(f"success threshold must be finite and >= 0, got {self.success_threshold}")


@dataclass(frozen=True)
class AttemptRecord:
    program: str
    accepted: bool
    reason: str | None = None


@dataclass(frozen=True)
class StageRecord:
    program: str
    kind: str  # "solve" or "gripper"
    residual: float
    solve: SolveResult | None = None
    error: str | None = None


@dataclass(frozen=True)
class TaskTrace:
    instruction: str
    attempts: tuple[AttemptRecord, ...]
    stages: tuple[StageRecord, ...]
    final_state: dict
    success: bool

    def to_json(self) -> dict:
        return {
            "instruction": self.instruction,
            "attempts": [
                {"program": a.program, "verdict": "accepted" if a.accepted else "rejected",
                 "reason": a.reason}
                for a in self.attempts
            ],
            "stages": [
                {
                    "program": s.program,
                    "kind": s.kind,
                    # strict JSON has no Infinity; an errored stage has no residual
                    "residual": s.residual if s.error is None else None,
                    "solve": s.solve.to_json() if s.solve is not None else None,
                    "error": s.error,
                }
                for s in self.stages
            ],
            "final_state": self.final_state,
            "success": self.success,
        }

    def dumps(self) -> str:
        return files.dumps(self.to_json())


def split_stages(candidate: str) -> list[str]:
    """Stage programs are separated by lines holding only `---`."""
    groups = groupby(candidate.splitlines(), key=lambda line: line.strip() == STAGE_SEPARATOR)
    stages = ("\n".join(lines).strip() for separator, lines in groups if not separator)
    return [stage for stage in stages if stage]


def _final_state(scene: Scene) -> dict:
    snap = scene.snapshot()
    return {
        "gripper": {
            "position": [scene.gripper_position.x, scene.gripper_position.y,
                         scene.gripper_position.z],
            "open_fraction": scene.gripper_open_fraction,
        },
        "part_centroids": {
            name: [c.x, c.y, c.z] for name, c in sorted(snap.part_centroids.items())
        },
        "grasped": sorted(scene.grasped),
    }


def run_task(
    instruction: str,
    scene: Scene,
    client: TranslationClient,
    cfg: PipelineConfig | None = None,
) -> TaskTrace:
    """Translate, validate (with bounded reprompting), then solve stage by
    stage; a rejected candidate never reaches the solver."""
    cfg = cfg or PipelineConfig()
    prompt = build_prompt(instruction, scene, fixtures.default_prompt_template())
    summary = scene_summary(scene)

    attempts: list[AttemptRecord] = []
    for _ in range(MAX_ATTEMPTS):
        raw = client.translate(instruction, summary, prompt)
        candidate = [(text, validate_program(text)) for text in split_stages(raw)]
        reason = next((v.reason for _, v in candidate if not v), None) if candidate else "empty candidate"
        attempts.append(AttemptRecord(raw, reason is None, reason))
        if reason is None:
            break
        note = f"rejected: {reason}\nPlease fix it." if candidate else "empty. Reply with one cost expression."
        prompt += f"\nThe previous answer was {note}\n"
    else:
        trace = TaskTrace(instruction, tuple(attempts), (), _final_state(scene), success=False)
        raise TranslationFailedError(f"no valid candidate after {MAX_ATTEMPTS} attempts", trace)

    stages: list[StageRecord] = []
    current = scene
    for text, verdict in candidate:
        typed = verdict.typed
        if typed.sort == "void":
            if typed.word == "gripper_open":
                current = replace(current, gripper_open_fraction=1.0, grasped=frozenset())
            else:
                current = replace(current, gripper_open_fraction=0.0)
            stages.append(StageRecord(text, "gripper", 0.0))
            continue
        try:
            result = solve(typed, current, cfg.solve)
        except ManiplangError as exc:  # its inf residual fails the run
            stages.append(StageRecord(text, "solve", float("inf"), error=str(exc)))
            break
        moving, _ = partition_moving_static(current)
        current = transform_scene(current, result.pose, moving)
        stages.append(StageRecord(text, "solve", result.cost_term, solve=result))

    residuals = [s.residual for s in stages if s.kind == "solve"]
    return TaskTrace(
        instruction=instruction,
        attempts=tuple(attempts),
        stages=tuple(stages),
        final_state=_final_state(current),
        success=not residuals or residuals[-1] < cfg.success_threshold,
    )
