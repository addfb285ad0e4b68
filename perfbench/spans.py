"""In-memory span recorder for the benchmark.

A span covers one call from the benchmark into a layer of ``repro``: it
has a name, start, end, parent and run id, plus free-form counts. Spans
are kept in memory and turned into metrics when the run ends.

Spans opened with ``spark=True`` run their Spark actions under a job
group of their own. After the run, `Tracer.spark_counts` reads from
``SparkContext.statusTracker()`` how many jobs, stages and tasks each
such group launched. Only the traced run opens job groups; the untraced
run records its few coarse spans with ``perf_counter`` alone.

`instrument` wraps public functions that the pipeline calls internally
(``VAE.fit``, ``Adam.step``, ``GaussianKDE.pdf`` ...) so their time shows
up as child spans. It patches attributes from outside the package and
restores them on exit; nothing in ``repro`` knows it is being traced.
"""
from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    group: str | None = None  # Spark job group, set only for spark=True spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover.

    Children that overlap each other or stick out of the parent are
    clipped, so a parent's self time never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """Records spans for one benchmark run (``run_id``).

    With ``sc`` given, spans opened with ``spark=True`` get a Spark job
    group; without it they are plain timers.
    """

    def __init__(self, run_id: str, sc=None):
        self.run_id = run_id
        self.sc = sc
        self.spans: list[Span] = []
        self.overhead_s = 0.0  # time spent in the tracer's own bookkeeping
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, *, spark: bool = False, **counts) -> Iterator[Span]:
        entered = time.perf_counter()
        parent = self._stack[-1].id if self._stack else None
        s = Span(next(self._ids), name, parent, self.run_id, 0.0, counts=dict(counts))
        if spark and self.sc is not None:
            s.group = f"{self.run_id}.{s.id}"
            self.sc.setJobGroup(s.group, name)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)
            if s.group is not None:
                self._restore_group()
            self.overhead_s += (s.start - entered) + (time.perf_counter() - s.end)

    def add(self, name: str, start: float, end: float, parent: Span, **counts) -> Span:
        """Record a span whose interval is known only after the fact."""
        s = Span(next(self._ids), name, parent.id, self.run_id, start, end, dict(counts))
        self.spans.append(s)
        return s

    def _restore_group(self) -> None:
        outer = next((s.group for s in reversed(self._stack) if s.group), None)
        if outer is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(outer, outer)

    def spark_counts(self) -> None:
        """Fill ``spark_jobs``/``spark_stages``/``spark_tasks`` on every
        span that owned a job group. Call once, after the last action.

        Stages Spark skipped because their shuffle output already existed
        are not counted; tasks are completed tasks.
        """
        if self.sc is None:
            return
        _drain_listener_bus(self.sc)
        st = self.sc.statusTracker()
        for s in self.spans:
            if s.group is None:
                continue
            jobs = st.getJobIdsForGroup(s.group)
            stages = tasks = 0
            for j in jobs:
                info = st.getJobInfo(j)
                for sid in info.stageIds if info else ():
                    si = st.getStageInfo(sid)
                    if si is not None and si.numCompletedTasks > 0:
                        stages += 1
                        tasks += si.numCompletedTasks
            s.counts.update(spark_jobs=len(jobs), spark_stages=stages, spark_tasks=tasks)


def _drain_listener_bus(sc, timeout_ms: int = 10_000) -> None:
    """Wait until the status store has seen every finished job.

    The status store is fed asynchronously by Spark's listener bus, so
    the last jobs of a run can be missing right after they return.
    """
    from py4j.protocol import Py4JError

    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty(timeout_ms)
    except Py4JError:  # a private JVM API; fall back to a grace period
        time.sleep(1.0)


@contextmanager
def instrument(tracer: Tracer, targets: list[tuple[object, str, str, Callable | None]]):
    """Wrap ``owner.attr`` in a span named ``name`` for the duration.

    ``counts(result, *args, **kwargs)`` may return extra span counts.
    Originals are restored on exit, even if the body raised.
    """
    saved = []
    for owner, attr, name, counts in targets:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, orig, name, counts))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _wrap(tracer: Tracer, fn: Callable, name: str, counts: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if counts is not None:
                t0 = time.perf_counter()
                s.counts.update(counts(out, *args, **kwargs))
                tracer.overhead_s += time.perf_counter() - t0
            return out

    return wrapper
