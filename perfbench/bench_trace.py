"""In-memory spans around the benchmark's calls into the library layers.

A span is (id, name, start_ns, end_ns, parent_id, job_id).  Spans are only
appended while a run is measured and are written out after it ends.
"""
from __future__ import annotations

import time
from collections import defaultdict

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "job")


class NullTracer:
    """Calls straight through; used for the untraced passes."""

    job: str | None = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.job: str | None = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.job)


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for a, b in sorted(children[sid]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = end - start - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total and self nanoseconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[1], {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += s[3] - s[2]
        row["self_ns"] += own[s[0]]
    return out
