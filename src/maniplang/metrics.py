"""Representation metrics: action-generalizability and comprehensibility.

AG = 1 - |V| / T   (|V| = unique vocabulary operations, T = task count;
                    may go negative when a vocabulary outgrows the task set)
VC = N_succ / T    (fraction of tasks whose judged verdict `judge_verdict`
                    reads as success)

A host-language escape (methods that additionally allow arbitrary code) is
carried as a flag: the core |V| excludes it and is what gets plotted; the
"+escape" count is reported alongside. Task judgments are fixture data,
never re-queried from any model.
"""

from __future__ import annotations

import csv
import html
import io
from dataclasses import dataclass
from pathlib import Path

from .errors import ManiplangError
from .files import member, read_json, typed_value, write_text
from .language.vocabulary import Vocabulary, vocabulary_from_json, vocabulary_size

SUCCESS_VERDICTS = frozenset({"correct", "correct and sufficient", "success"})


class MetricsError(ManiplangError):
    pass


class ZeroTasksError(MetricsError):
    pass


class ProfileSchemaError(MetricsError):
    """Schema violation; the message names the offending field path."""


@dataclass(frozen=True)
class Task:
    task_id: int
    title: str
    instruction: str


def load_tasks(path) -> list[Task]:
    """The task list of a JSON document, its ids 1..N each once; each error is
    a MetricsError naming its field."""
    doc = typed_value(read_json(path, MetricsError), dict, f"{path}: tasks document", MetricsError)
    entries = typed_value(member(doc, "tasks", str(path), MetricsError), list, f"{path}: tasks", MetricsError)
    tasks: dict[int, Task] = {}
    for i, entry in enumerate(entries):
        where = f"{path}: tasks[{i}]"
        task_id = typed_value(member(entry, "task_id", where, MetricsError), int, f"{where}.task_id", MetricsError)
        if not 1 <= task_id <= len(entries):
            raise MetricsError(f"{where}.task_id: task {task_id} is not in 1..{len(entries)}")
        if task_id in tasks:
            raise MetricsError(f"{where}.task_id: task {task_id} is listed twice")
        tasks[task_id] = Task(
            task_id,
            typed_value(member(entry, "title", where, MetricsError), str, f"{where}.title", MetricsError),
            typed_value(member(entry, "instruction", where, MetricsError), str, f"{where}.instruction", MetricsError),
        )
    return list(tasks.values())


@dataclass(frozen=True)
class TaskOutcome:
    task_id: int
    verdict: str

    @property
    def success(self) -> bool:
        return judge_verdict(self.verdict)


@dataclass(frozen=True)
class RepresentationProfile:
    name: str
    vocabulary: Vocabulary
    task_outcomes: tuple[TaskOutcome, ...] = ()

    def core_size(self) -> int:
        return vocabulary_size(self.vocabulary)

    def size_with_escape(self) -> int:
        return self.core_size() + (1 if self.vocabulary.has_host_escape else 0)


def action_generalizability(profile: RepresentationProfile, task_count: int) -> float:
    """1 - |V|/T over the core vocabulary; negative values are reported as-is."""
    if task_count < 1:
        raise ZeroTasksError("task count must be at least 1")
    return 1.0 - profile.core_size() / task_count


def vlm_comprehensibility(profile: RepresentationProfile) -> float:
    if not profile.task_outcomes:
        raise ZeroTasksError(f"profile {profile.name!r} has no task outcomes")
    return success_count(profile) / len(profile.task_outcomes)


def success_count(profile: RepresentationProfile) -> int:
    return sum(1 for outcome in profile.task_outcomes if outcome.success)


def judge_verdict(verdict: str) -> bool:
    """A verdict counts as success only when judged fully correct."""
    return verdict.strip().casefold() in SUCCESS_VERDICTS


def profile_from_json(doc, source: str = "profile") -> RepresentationProfile:
    """The profile of the JSON document named `source`; each error is a
    ProfileSchemaError naming the path of its field, as in `seam.words[3].name`."""
    error = ProfileSchemaError
    name = typed_value(member(doc, "name", source, error), str, f"{source}.name", error)
    if not name:
        raise ProfileSchemaError(f"{source}.name: expected a non-empty string")
    vocabulary, _ = vocabulary_from_json(doc, source, error)
    entries = typed_value(member(doc, "task_outcomes", source, error, []), list, f"{source}.task_outcomes", error)
    outcomes: dict[int, TaskOutcome] = {}
    for i, entry in enumerate(entries):
        path = f"{source}.task_outcomes[{i}]"
        verdict = typed_value(member(entry, "verdict", path, error), str, f"{path}.verdict", error)
        task_id = typed_value(member(entry, "task_id", path, error), int, f"{path}.task_id", error)
        if task_id in outcomes:
            raise ProfileSchemaError(f"{path}.task_id: task {task_id} already has an outcome")
        outcomes[task_id] = TaskOutcome(task_id, verdict)
    return RepresentationProfile(name, vocabulary, tuple(outcomes.values()))


def load_profiles(path) -> list[RepresentationProfile]:
    """Load one profile file or every *.json in a directory (sorted by name)."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise ProfileSchemaError(f"{p}: no profile files found")
    return [profile_from_json(read_json(f, ProfileSchemaError), source=f.stem) for f in files]


@dataclass(frozen=True)
class MetricsRow:
    method: str
    vocab_size: int
    vocab_size_with_escape: int
    ag: float
    n_succ: int
    vc: float


def compute_rows(profiles: list[RepresentationProfile], task_count: int) -> list[MetricsRow]:
    """One row per profile; each must give every task in 1..task_count an
    outcome, and no other task, so VC divides N_succ by T."""
    rows = []
    for profile in profiles:
        ag = action_generalizability(profile, task_count)
        stray = [o.task_id for o in profile.task_outcomes if not 1 <= o.task_id <= task_count]
        if stray:
            raise MetricsError(f"profile {profile.name!r}: task {stray[0]} is not in 1..{task_count}")
        listed = {o.task_id for o in profile.task_outcomes}
        missing = next((i for i in range(1, task_count + 1) if i not in listed), None)
        if missing is not None:
            raise MetricsError(f"profile {profile.name!r}: task {missing} has no outcome")
        rows.append(
            MetricsRow(
                method=profile.name,
                vocab_size=profile.core_size(),
                vocab_size_with_escape=profile.size_with_escape(),
                ag=ag,
                n_succ=success_count(profile),
                vc=vlm_comprehensibility(profile),
            )
        )
    return rows


def rows_to_csv(rows: list[MetricsRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method", "vocab_size", "vocab_size_with_escape", "ag", "n_succ", "vc"])
    for row in rows:
        writer.writerow(
            [row.method, row.vocab_size, row.vocab_size_with_escape, f"{row.ag:.6f}", row.n_succ, f"{row.vc:.6f}"]
        )
    return out.getvalue()


_SVG_W, _SVG_H = 480, 360
_ML, _MR, _MT, _MB = 64, 16, 16, 48


def _sx(value: float) -> float:
    return _ML + value * (_SVG_W - _ML - _MR)


def _sy(value: float) -> float:
    return _SVG_H - _MB - value * (_SVG_H - _MT - _MB)


def rows_to_svg(rows: list[MetricsRow]) -> str:
    """Scatter of AG (x) against VC (y) on fixed [0, 1] axes."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_sy(0):.1f}" x2="{_SVG_W - _MR}" y2="{_sy(0):.1f}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_sy(0):.1f}" x2="{_ML}" y2="{_MT}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = _sx(tick), _sy(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_sy(0):.1f}" x2="{x:.1f}" y2="{_sy(0) + 4:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_sy(0) + 16:.1f}" font-size="10" text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 3:.1f}" font-size="10" text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _SVG_W - _MR) / 2:.1f}" y="{_SVG_H - 12}" font-size="11" '
        f'text-anchor="middle">action-generalizability</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MT + _SVG_H - _MB) / 2:.1f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {(_MT + _SVG_H - _MB) / 2:.1f})">vlm-comprehensibility</text>'
    )
    for row in rows:
        x = _sx(min(max(row.ag, 0.0), 1.0))
        y = _sy(min(max(row.vc, 0.0), 1.0))
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="steelblue"/>')
        parts.append(
            f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="10">{html.escape(row.method, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_outputs(rows: list[MetricsRow], csv_path, svg_path) -> None:
    write_text(csv_path, rows_to_csv(rows), MetricsError)
    write_text(svg_path, rows_to_svg(rows), MetricsError)
