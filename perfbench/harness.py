"""Shared pieces of the benchmark: paths, child processes, machine-speed
calibration, the closed loop, latency statistics and the environment block."""

from __future__ import annotations

import ast
import functools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import programs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "maniplang"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_TIMEOUT_S = 120

# Machine-speed calibration. On a shared virtual machine the same work can
# take 30% longer for seconds at a time, which would swamp any change worth
# measuring. So the client runs slices of a fixed reference task and divides
# every operation's time by the machine's slowdown around it: the reference
# time over REF_NOMINAL_S. Figures are then seconds at nominal speed; raw
# figures are reported beside them.
# - Between operations, slices are at least REF_INTERVAL_S apart and each
#   costs about a tenth of the time since the previous one, between
#   REF_REPS_MIN and REF_REPS_MAX repetitions.
# - An operation is also interrupted every REF_TICK_S for a slice of
#   REF_TICK_REPS repetitions, because the machine's speed changes within a
#   solve of several seconds; a child process it waits for is stopped for
#   the slice. The slice's time is taken out of the operation's, and each
#   stretch of the operation between two slices is divided by the mean
#   slowdown of those two.
REF_REPS_MIN, REF_REPS_MAX = 25, 770  # ~10 ms and ~300 ms
REF_INTERVAL_S = 0.1
REF_TICK_S, REF_TICK_REPS = 0.2, 10  # ~6 ms every 0.2 s
REF_NOMINAL_S = 5.8e-4  # one repetition, median over 20 s on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> int:
    """Cap numpy's BLAS pool, here and in every child, at the CPUs this
    process may use; must run before numpy is imported and after
    pin_to_one_cpu, so the cap is the one CPU the work runs on. Returns
    the cap."""
    cpus = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(cpus)
    return cpus


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU: the
    calibration slices then measure the CPU the operations run on. On a
    2-vCPU virtual machine this halved the spread of cold_cli's figures.
    Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # carries the thread caps set by cap_threads
    env["PYTHONPATH"] = str(SRC)
    return env


@functools.cache
def _reference_inputs():
    import numpy as np  # not at import time: cap_threads must come first

    rng = np.random.default_rng(0)
    points = rng.normal(size=(1000, 3))
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    doc = json.dumps({"parts": {f"part {i}": {"points": points[:20].round(6).tolist(), "grasped": i == 0} for i in range(3)}})
    return points, rotation, doc


def reference_rep() -> float:
    """Fixed work shaped like maniplang's, none of it maniplang's: an edit
    distance in the interpreter, parsing an expression and a JSON document,
    and moving and reducing a 1,000-point cloud with numpy."""
    import numpy as np

    points, rotation, doc = _reference_inputs()
    total = float(programs.edit_distance("blade of the knife", "teapot top rim"))
    ast.parse("move_cost(get_centroid('a'), get_centroid('b'), offset=[0, 0, 0.1]) + 0.5")
    json.loads(doc)
    for _ in range(3):
        moved = (points - points[0]) @ rotation.T + points[1]
        total += float(np.isfinite(moved).sum())
        centered = moved - moved.mean(axis=0)
        eigvals, _ = np.linalg.eigh(centered.T @ centered / len(moved))
        total += float(eigvals[-1]) + float(moved[:, 2].max() - moved[:, 2].min())
    return total


def reference_seconds(reps: int = REF_REPS_MIN) -> float:
    """Seconds one reference repetition takes now (mean over `reps`)."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_rep()
    return (time.perf_counter() - t0) / reps


def run_child(argv: list[str], phase: Phase | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; returns it and its wall time in seconds.

    Given a phase, the child is stopped every REF_TICK_S while the phase
    takes a calibration slice, so the slice has the CPU to itself.
    """
    t0 = time.perf_counter()
    deadline = t0 + CHILD_TIMEOUT_S
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child_env(), cwd=ROOT,
    ) as child:
        while True:
            try:
                out, err = child.communicate(timeout=CHILD_TIMEOUT_S if phase is None else REF_TICK_S)
                break
            except subprocess.TimeoutExpired:
                if phase is None or time.perf_counter() > deadline:
                    child.kill()
                    child.communicate()
                    raise
                _calibrate_with_child_stopped(child.pid, phase)
    return subprocess.CompletedProcess(argv, child.returncode, out, err), time.perf_counter() - t0


def _calibrate_with_child_stopped(pid: int, phase: Phase) -> None:
    os.kill(pid, signal.SIGSTOP)
    try:
        # WNOWAIT: a child that has just exited stays for Popen to reap.
        state = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        if state is not None and state.si_code == os.CLD_STOPPED:
            phase.calibrate(REF_TICK_REPS)
    finally:
        os.kill(pid, signal.SIGCONT)


def median_setup_s(argv: list[str], repeats: int) -> tuple[float, float]:
    """Median set-up time over `repeats` fresh children, one at a time:
    (at nominal machine speed, raw).

    A child that prints a number reports its own set-up time; otherwise
    its wall time is the set-up time.
    """
    raw, normalized = [], []
    reps = REF_REPS_MAX // 3
    before = reference_seconds(reps)
    for _ in range(repeats):
        proc, wall = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child {argv} failed:\n{proc.stderr}")
        out = proc.stdout.strip()
        sample = float(out.splitlines()[-1]) if out else wall
        after = reference_seconds(reps)
        raw.append(sample)
        normalized.append(sample / ((before + after) / 2 / REF_NOMINAL_S))
        before = after
    return statistics.median(normalized), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest of the percentiles
    90, 99, 99.9, ... that leaves at least TAIL_BEYOND samples above it.

    A run lasts a set time, so how many operations it holds follows the
    machine's speed. Stepping the percentile by decades keeps it the same
    from run to run; a percentile that always left exactly TAIL_BEYOND
    samples would move with the count, and the value with it. With fewer
    than 10 * TAIL_BEYOND samples even the 90th percentile leaves too few,
    so the maximum is reported (percentile 100, none beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    decades = len(str(n // TAIL_BEYOND)) - 1  # largest k with n / 10**k >= TAIL_BEYOND
    beyond = n // 10**decades
    return ordered[n - beyond - 1], 100.0 * (1 - 10.0**-decades), beyond


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Phase:
    """Outcome of one measured window of a closed loop."""

    latencies: list[float] = field(default_factory=list)  # raw seconds, set by finish()
    kinds: list[str] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    op_spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) of each operation
    refs: list[tuple[float, float, float]] = field(default_factory=list)  # (start, end, seconds per repetition)
    slowdown: list[float] = field(default_factory=list)  # per operation, set by finish()
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    peak_rss_mb: float = 0.0  # this process's, set by closed_loop
    peak_child_rss_mb: float = 0.0  # the largest child's, set by closed_loop

    def fail(self, message: str, op: int | None = None) -> None:
        """Record a failed check of operation `op` (by default the latest)."""
        self.failures.append(message)
        self.failed_ops.add(self.attempted if op is None else op)

    def calibrate(self, reps: int = REF_REPS_MAX) -> None:
        start = time.perf_counter()
        per_rep = reference_seconds(reps)
        self.refs.append((start, time.perf_counter(), per_rep))

    def calibrate_if_due(self) -> None:
        since = time.perf_counter() - self.refs[-1][1]
        if since >= REF_INTERVAL_S:
            self.calibrate(min(max(int(0.1 * since / REF_NOMINAL_S), REF_REPS_MIN), REF_REPS_MAX))

    @contextmanager
    def ticking(self):
        """Take a short reference slice every REF_TICK_S until the block ends.

        The timer is one-shot and re-armed after each slice, so a slice can
        never be interrupted by the next; once the block ends, a signal
        still pending takes its slice but does not re-arm.
        """
        active = True

        def tick(signum, frame):
            self.calibrate(REF_TICK_REPS)
            if active:
                signal.setitimer(signal.ITIMER_REAL, REF_TICK_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REF_TICK_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def finish(self) -> None:
        """Each operation's own time and slowdown. The slices inside an
        operation split it into stretches; a stretch is divided by the mean
        slowdown of the slices that bound it, and the slices' own time is
        not the operation's. Needs a slice before the first operation and
        one after the last."""
        starts = [start for start, _, _ in self.refs]
        self.latencies, self.slowdown = [], []
        for t0, t1 in self.op_spans:
            first, end = bisect_right(starts, t0), bisect_left(starts, t1)
            bounds = self.refs[first - 1 : end + 1]
            edges = [t0, *(t for start, stop, _ in self.refs[first:end] for t in (start, stop)), t1]
            own = at_nominal = 0.0
            for k in range(len(bounds) - 1):
                stretch = edges[2 * k + 1] - edges[2 * k]
                own += stretch
                at_nominal += stretch / ((bounds[k][2] + bounds[k + 1][2]) / 2 / REF_NOMINAL_S)
            self.latencies.append(own)
            self.slowdown.append(own / at_nominal)

    @property
    def normalized(self) -> list[float]:
        """Operation times at nominal machine speed."""
        return [lat / s for lat, s in zip(self.latencies, self.slowdown)]

    @staticmethod
    def rate(latencies: list[float]) -> float:
        """Operations per second of time spent inside operations; the
        client's own work between operations (making the next input,
        checking the last output, calibrating) is not counted."""
        return len(latencies) / sum(latencies)


def closed_loop(cycle, seconds: float, min_cycles: int, phase: Phase) -> Phase:
    """One client: run whole cycles back to back until `seconds` have passed
    and at least `min_cycles` are done. `cycle(index, phase)` runs one
    cycle and records each operation into `phase` through timed_op.

    Peak memory is read once `min_cycles` cycles are done. The client keeps
    a record of every operation until the run ends, so a later reading would
    grow with the number of operations a run completes, and a faster
    program would read as a bigger one.
    """
    phase.calibrate()
    t0 = time.perf_counter()
    index = 0
    while index < min_cycles or time.perf_counter() - t0 < seconds:
        cycle(index, phase)
        index += 1
        if index == min_cycles:
            phase.peak_rss_mb, phase.peak_child_rss_mb = peak_rss_mb(), peak_rss_mb(children=True)
    phase.calibrate(REF_REPS_MIN)
    phase.finish()
    return phase


def timed_op(phase: Phase, kind: str, fn, tracer=None, in_process: bool = True):
    """Run one operation, time it and count it; an unexpected exception is a
    failed operation. Returns fn's result, or None when it raised.

    An in-process operation is calibrated from inside too. One that waits
    for a child process (`in_process=False`) is not, since a slice would
    share the child's CPU; run_child calibrates with the child stopped.
    """
    phase.calibrate_if_due()
    phase.attempted += 1
    op_id = phase.attempted
    scope = nullcontext() if tracer is None else tracer.operation(op_id)
    ticks = phase.ticking() if in_process else nullcontext()
    try:
        with ticks:
            t0 = time.perf_counter()
            with scope:
                result = fn()
            t1 = time.perf_counter()
    except Exception:  # the loop must go on; the failure is recorded
        phase.fail(f"{kind}: unexpected exception\n{traceback.format_exc(limit=4)}")
        return None
    phase.kinds.append(kind)
    phase.op_ids.append(op_id)
    phase.op_spans.append((t0, t1))
    return result


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(PACKAGE.rglob("*.py"))
    )


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # no repository above ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_block(available_cpus: int, pinned_cpu: int) -> dict:
    """`available_cpus`: the CPUs the process could use before it was pinned."""
    import numpy

    return {
        "nproc": available_cpus,
        "cpus_used": nproc(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "code.src_lines": src_lines(),
    }
