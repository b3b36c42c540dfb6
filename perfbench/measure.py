"""Measurement helpers: percentiles, a CPU-time deadline, memory, inputs."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import signal
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path


def percentile(values, p: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile that leaves at least ``min_beyond`` samples
    above it; raises ValueError when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = max(math.ceil(p / 100.0 * n) - 1, 0)
    if n - 1 - k < min_beyond:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - 1 - k} beyond it, need {min_beyond}"
        )
    return xs[k]


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


class DeadlineExceeded(BaseException):
    """Raised inside the guarded call when its CPU-time budget runs out.

    A BaseException so that no ``except Exception`` in the callee
    swallows it.
    """


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def cpu_deadline(seconds: float):
    """Interrupt the body once the process has used ``seconds`` of CPU.

    CPU time (ITIMER_PROF) rather than wall time keeps the verdict
    independent of other processes competing for the machine.  Main
    thread only.
    """
    old = signal.signal(signal.SIGPROF, _on_deadline)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


def timed_call(fn, deadline_s: float, failures: tuple = ()):
    """Run ``fn`` under a CPU-time deadline.

    Returns (status, wall_s, cpu_s, value).  ``status`` is ``ok``,
    ``timeout`` (both times counted as the deadline) or ``fail`` (``fn``
    raised one of ``failures``).

    Garbage collection is held off until the call returns.  A full
    collection of a training-sized heap takes about 0.16 s, and it would
    otherwise land on whichever call happened to trigger it and push that
    call past the deadline.  The caller's own timing still includes it.
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        c0 = time.process_time()
        value = None
        try:
            with cpu_deadline(deadline_s):
                value = fn()
            status = "ok"
        except DeadlineExceeded:
            status = "timeout"
        except failures:
            status = "fail"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if gc_enabled:
            gc.enable()
    if status == "timeout":
        wall = cpu = deadline_s
    return status, wall, cpu, value


def unexplained_flips(first: dict, second: dict) -> list:
    """Ids past the deadline in one run but not the other, where the run
    in which the call finished did not record it as near the deadline.

    Each run is ``{"timeouts": [ids], "near": {id: cpu_s}}``; ``near``
    holds the calls that finished within the noise band below the
    deadline.  Only those may change verdict between runs.
    """
    a, b = set(first["timeouts"]), set(second["timeouts"])
    near_a = {int(k) for k in first["near"]}
    near_b = {int(k) for k in second["near"]}
    return sorted((a - b - near_b) | (b - a - near_a))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reachable_share(graph, observed) -> tuple[int, int]:
    """(goals reachable from the observed goals through any body, goals)."""
    seen = set()
    stack = list(set(int(g) for g in observed))
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        for body in graph.formulas[g].bodies:
            stack.extend(s for s in body.subgoals if s not in seen)
    return len(seen), graph.n_goals


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD commit, or None when ``root`` is not a git checkout."""
    if not (root / ".git").exists():  # keep git from searching parent directories
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root),
    }
