"""Spans recorded by the benchmark around calls into maniplang's layers.

A span has a name, a start, an end, a parent span and an operation id.
Spans live in flat in-memory arrays while a traced run goes on and are
written out once it ends. Nothing here reaches inside maniplang's source:
the tracer wraps public functions and replaces the module attributes that
maniplang's own modules call through, then puts the originals back.

The layer of a span is the part of its name before the first dot
("solver.solve" belongs to the solver layer). The benchmark's own code
inside an operation belongs to the "bench" layer. The benchmark's
calibration slices inside an operation are spans of their own
(CALIBRATION_SPAN): they are taken out of the span they interrupted and
counted in no layer.
"""

from __future__ import annotations

import importlib
import time
from array import array
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.op"
BENCH_LAYER = "bench"  # the layer of ROOT_SPAN: the benchmark's own code
CALIBRATION_SPAN = "calibration.slice"

# (module, attribute, span name): the call sites inside maniplang that the
# tracer intercepts. Each module attribute is the name the calling module
# looks up at call time, so replacing it routes that call through a span.
PATCH_POINTS = (
    ("maniplang.pipeline", "validate_program", "language.validate_program"),
    ("maniplang.pipeline", "solve", "solver.solve"),
    ("maniplang.pipeline", "transform_scene", "solver.transform_scene"),
    ("maniplang.pipeline", "partition_moving_static", "solver.partition_moving_static"),
    ("maniplang.fixtures", "default_prompt_template", "fixtures.default_prompt_template"),
    ("maniplang.solver", "evaluate", "costs.evaluate"),
    ("maniplang.solver", "transform_scene", "solver.transform_scene"),
    ("maniplang.solver", "rotation_xyz", "geometry.rotation_xyz"),
    ("maniplang.solver", "euler_from_rotation", "geometry.euler_from_rotation"),
    ("maniplang.solver", "PointCloud", "geometry.PointCloud"),
    ("maniplang.solver", "Scene", "scene.Scene"),
    ("maniplang.costs", "principal_axis", "geometry.principal_axis"),
    ("maniplang.costs", "extent", "geometry.extent"),
    ("maniplang.costs", "angle_between", "geometry.angle_between"),
    ("maniplang.language.typecheck", "parse", "language.parse"),
    ("maniplang.language.parser", "tokenize", "language.tokenize"),
    ("maniplang.retrieval", "retrieve", "retrieval.retrieve"),
)

# The coarse set: pipeline-level boundaries only, cheap enough that solve
# times measured under it stay within noise of untraced ones.
COARSE_PATCH_POINTS = tuple(p for p in PATCH_POINTS if p[0] in ("maniplang.pipeline", "maniplang.fixtures"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for one process, one span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span named `name`."""
        nid = self._intern(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def counter(self, fn, name: str):
        """`fn` with its calls counted under `name`, no span recorded."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; spans opened inside carry `op_id`."""
        self.op_id = op_id
        index = len(self.start)
        self.name_id.append(self._intern(ROOT_SPAN))
        self.parent.append(self._stack[-1])
        self.op.append(op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()
            self.op_id = -1

    @contextmanager
    def patched(self, points=PATCH_POINTS, counted=()):
        """Route maniplang's internal call sites through spans (or counters)."""
        saved = []
        try:
            for module_name, attr, span in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span))
            for module_name, attr, name in counted:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.counter(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def add_slices(self, slices) -> None:
        """Record each (start, end) interval in seconds that lies inside an
        operation as a CALIBRATION_SPAN under the innermost span holding it.
        A slice interrupts the code it lands in, so it always nests."""
        nid = self._intern(CALIBRATION_SPAN)
        spans = len(self.start)  # start times rise with the index
        for start_s, end_s in slices:
            lo, hi = round(start_s * 1e9), round(end_s * 1e9)
            i = bisect_right(self.start, lo, 0, spans) - 1
            while i >= 0 and self.end[i] < hi:
                i = self.parent[i]
            if i < 0:
                continue  # between operations
            self.name_id.append(nid)
            self.start.append(lo)
            self.end.append(hi)
            self.parent.append(i)
            self.op.append(self.op[i])

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    kids: dict[int, list[int]] = defaultdict(list)
    for index, p in enumerate(parent):
        if p >= 0:
            kids[p].append(index)
    result = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        intervals = sorted((max(start[c], lo), min(end[c], hi)) for c in children)
        covered = 0
        run_start, run_end = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            elif b > run_end:
                run_end = b
        if run_end is not None:
            covered += run_end - run_start
        result[p] -= covered
    return result


def layer_self_ns(tracer: Tracer) -> tuple[dict[str, int], dict[int, int]]:
    """Self time per layer, and per operation the self time of its spans
    in maniplang's layers (every layer but the benchmark's own)."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    per_layer: dict[str, int] = defaultdict(int)
    per_op: dict[int, int] = defaultdict(int)
    layers = [layer_of(n) for n in tracer.names]
    skip = tracer.names.index(CALIBRATION_SPAN) if CALIBRATION_SPAN in tracer.names else -1
    for index, value in enumerate(own):
        if tracer.name_id[index] == skip:
            continue
        layer = layers[tracer.name_id[index]]
        per_layer[layer] += value
        if layer != BENCH_LAYER:
            per_op[tracer.op[index]] += value
    return dict(per_layer), dict(per_op)
