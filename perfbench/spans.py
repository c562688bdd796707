"""In-memory span recorder for the benchmark's traced run.

The traced run wraps public functions of the ``repro`` modules from the
outside (see :mod:`perfbench.layers`).  Each wrapped call becomes a
span: name, start, end, parent span and job id.  Functions called per
record (``sizeof``, ``build_chunk``) would cost more to record than to
run, so they are *hot*: only their call count and total time are kept,
and that time is charged to the span open on the calling thread, so
self times still add up.

Nothing here takes a lock.  The engine forks pool workers while the
caller's threads are running, and a lock held by another thread at fork
time would never be released in the child.  Each thread appends to its
own log; the logs are merged when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover (the union of their intervals) and minus the hot
calls made directly under it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class Span:
    """One recorded call.  ``hot`` is hot-call time charged to it."""

    __slots__ = ("sid", "parent", "name", "job", "tid", "start", "end", "hot")

    def __init__(self, sid, parent, name, job, tid, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.job = job
        self.tid = tid
        self.start = start
        self.end = start
        self.hot = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, epoch: float) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "job": self.job,
            "thread": self.tid,
            "start_s": self.start - epoch,
            "end_s": self.end - epoch,
            "hot_s": self.hot,
        }


class _ThreadLog:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        #: Hot time spent with no open span on this thread, per root id.
        self.orphan_hot: dict[Any, float] = defaultdict(float)
        self.hot_depth = 0


class Tracer:
    """Collects spans, hot-call totals and counters for one run."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count(1)
        #: Parent for spans opened on a thread with no open span (the
        #: compile scheduler's worker threads).  Set by :meth:`root` when
        #: one caller drives the run; left None when several do.
        self.fallback: Optional[Span] = None

    # -- recording ------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            self._logs.append(log)
        return log

    def begin(self, name: str, job: Any = None) -> Span:
        log = self._log()
        parent = log.stack[-1] if log.stack else self.fallback
        span = Span(
            next(self._ids),
            parent.sid if parent is not None else None,
            name,
            job,
            log.tid,
            time.perf_counter(),
        )
        log.stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        log = self._log()
        # Pop through spans a generator or an exception left open.
        while log.stack:
            if log.stack.pop() is span:
                break
        log.spans.append(span)

    @contextmanager
    def span(self, name: str, job: Any = None) -> Iterator[Span]:
        span = self.begin(name, job)
        try:
            yield span
        finally:
            self.finish(span)

    @contextmanager
    def root(self, name: str, job: Any = None, fallback: bool = True) -> Iterator[Span]:
        """A root span; with ``fallback`` it adopts other threads' spans."""
        span = self.begin(name, job)
        previous = self.fallback
        if fallback:
            self.fallback = span
        try:
            yield span
        finally:
            self.fallback = previous
            self.finish(span)

    def count(self, name: str, n: int = 1) -> None:
        self._log().counts[name] += n

    def hot_call(self, name: str, fn: Callable, args, kwargs) -> Any:
        log = self._log()
        if log.hot_depth:  # a recursive call through the patched global
            return fn(*args, **kwargs)
        log.hot_depth += 1
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            log.hot_depth -= 1
            entry = log.hot.get(name)
            if entry is None:
                entry = log.hot[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            if log.stack:
                log.stack[-1].hot += elapsed
            elif self.fallback is not None:
                log.orphan_hot[self.fallback.sid] += elapsed

    # -- wrappers -------------------------------------------------------

    def wrap_span(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.hot_call(name, fn, args, kwargs)

        return traced

    # -- results --------------------------------------------------------

    def spans(self) -> list[Span]:
        out = [span for log in self._logs for span in log.spans]
        out.sort(key=lambda span: span.start)
        return out

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for log in self._logs:
            for name, value in log.counts.items():
                total[name] += value
        return dict(total)

    def hot_totals(self) -> dict[str, tuple[int, float]]:
        total: dict[str, list] = {}
        for log in self._logs:
            for name, (calls, seconds) in log.hot.items():
                entry = total.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
        return {name: (calls, seconds) for name, (calls, seconds) in total.items()}

    def orphan_hot(self) -> dict[Any, float]:
        total: dict[Any, float] = defaultdict(float)
        for log in self._logs:
            for sid, seconds in log.orphan_hot.items():
                total[sid] += seconds
        return total


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: list[Span], orphan_hot: Optional[dict] = None) -> dict[int, float]:
    """Span id → duration minus child coverage and direct hot calls."""
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children[parent.sid].append((start, end))
    orphan_hot = orphan_hot or {}
    return {
        span.sid: max(
            0.0,
            span.duration
            - _union_length(children.get(span.sid, []))
            - span.hot
            - orphan_hot.get(span.sid, 0.0),
        )
        for span in spans
    }


def link_jobs(spans: list[Span], root_name: str) -> None:
    """Give parentless spans the root span of their job as parent.

    A daemon executes a job on its own threads; its spans carry the job
    id but no parent.  The client's root span for that job learns the
    id when the submission returns, so the link is made afterwards.
    """
    roots = {span.job: span for span in spans if span.name == root_name and span.job is not None}
    for span in spans:
        if span.parent is None and span.name != root_name:
            root = roots.get(span.job)
            if root is not None:
                span.parent = root.sid


def resolve_jobs(spans: list[Span]) -> dict[int, Any]:
    """Span id → job id of its root span (or its own, when the root has none).

    A root span learns its job id when the job returns, after its
    children began, so membership is resolved here rather than inherited
    when a span opens.
    """
    by_id = {span.sid: span for span in spans}
    jobs: dict[int, Any] = {}

    def job_of(span: Span) -> Any:
        chain = []
        node = span
        while node is not None and node.sid not in jobs:
            chain.append(node)
            node = by_id.get(node.parent)
        inherited = jobs.get(node.sid) if node is not None else None
        for member in reversed(chain):
            inherited = inherited if inherited is not None else member.job
            jobs[member.sid] = inherited
        return jobs[span.sid]

    for span in spans:
        job_of(span)
    return jobs


def per_name(spans: list[Span], selfs: dict[int, float], jobs: dict[int, Any]) -> dict[str, dict]:
    """Per span name: calls, total self time, per-job self-time sums."""
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "jobs": defaultdict(float)})
        entry["calls"] += 1
        entry["self_s"] += selfs[span.sid]
        entry["jobs"][jobs.get(span.sid)] += selfs[span.sid]
    return out


def job_median(per_job: dict, jobs: list) -> float:
    """Median over ``jobs`` of a per-job total (absent jobs count 0)."""
    if not jobs:
        return 0.0
    return statistics.median(per_job.get(job, 0.0) for job in jobs)


def write_json(path: str, tracer: Tracer, spans: list[Span], extra: dict) -> None:
    payload = {
        "spans": [span.as_dict(tracer.epoch) for span in spans],
        "hot": {name: {"calls": c, "seconds": s} for name, (c, s) in tracer.hot_totals().items()},
        "counts": tracer.counts(),
        **extra,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=str)


def write_chrome(path: str, tracer: Tracer, spans: list[Span]) -> None:
    """Chrome trace-event JSON (complete events), which Perfetto opens."""
    events = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - tracer.epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.tid,
                "args": {"id": span.sid, "parent": span.parent, "job": span.job, "hot_s": span.hot},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle, default=str)
