"""Measurement helpers: percentiles, in-memory spans, deadlines and child
processes timed with their own resource usage."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    order statistics, as ``statistics.quantiles(method="inclusive")``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    mode: str | None
    start: float
    end: float | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        assert self.end is not None, f"span {self.name} is still open"
        return self.end - self.start


class Tracer:
    """Records a span around each call the benchmark makes into a layer.

    Spans stay in memory until :meth:`write`.  A disabled tracer runs the
    same code with no recording, which is how the tracing overhead is
    measured.  A span without an explicit mode inherits its parent's.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, mode: str | None = None) -> Iterator[Span]:
        if not self.enabled:
            yield Span(-1, name, None, self.op, mode, 0.0)
            return
        parent = self._stack[-1] if self._stack else None
        if mode is None and parent is not None:
            mode = parent.mode
        rec = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            op=self.op,
            mode=mode,
            start=time.perf_counter(),
        )
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def span_cost_s(spans: int = 20_000, repeats: int = 5) -> float:
    """Seconds that recording one span adds: the time per empty span of an
    enabled tracer minus that of a disabled one, each the median of
    ``repeats`` loops."""

    def per_span(enabled: bool) -> float:
        samples = []
        for _ in range(repeats):
            tracer = Tracer(enabled)
            t0 = time.perf_counter()
            for _ in range(spans):
                with tracer.span("x"):
                    pass
            samples.append((time.perf_counter() - t0) / spans)
        return median(samples)

    return per_span(True) - per_span(False)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover, in seconds.  Overlapping children are counted once."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        assert s.end is not None, f"span {s.name} is still open"
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


@contextmanager
def deadline(seconds: float, on_expire: Callable[[], None]) -> Iterator[None]:
    """Call ``on_expire`` from a SIGALRM handler if the block is still
    running after ``seconds``.  Main thread only."""

    def expire(signum, frame) -> None:
        on_expire()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    exit_code: int | None  # None: killed at the deadline
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(
    argv: Sequence[str], *, env: dict[str, str], timeout_s: float, scratch: Path
) -> ChildResult:
    """Run ``argv`` to completion or kill it at ``timeout_s``.

    The child is reaped with ``os.wait4`` so its own peak RSS is known;
    output goes to files so that a chatty child cannot block on a pipe.
    """
    killed = False
    with open(scratch / "child.out", "w+b") as out, open(scratch / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill() -> None:
            nonlocal killed
            killed = True
            proc.kill()

        with deadline(timeout_s, kill):
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            wall_s=wall,
            exit_code=None if killed else proc.returncode,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )
