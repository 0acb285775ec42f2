"""The host's current speed, measured on a fixed pure-Python loop.

The benchmark runs on a few virtual cores of a shared host whose speed drifts
by tens of percent for seconds to minutes at a time, in process CPU time as
much as in wall time.  Each timed interval is therefore bracketed by
`loop_seconds()` samples, and its time is reported at the reference speed:

    corrected = measured * (REFERENCE_S / mean(loop samples near it)) ** sensitivity

`sensitivity` is how strongly the interval's work slows down with the loop
(the slope of log(time) against log(loop time); see bench_jobs.SENSITIVITY).
The samples near a job are those within the job's own length before its
start or after its end: a short job is judged by its two brackets, while a
long one, which averages the host's speed over its length, is judged by the
samples around it too.

The loop uses only builtins (tuples, a dict, integer arithmetic), so a change
to the library never changes it.
"""
from __future__ import annotations

import time

LOOP_N = 4000
LOOP_REPEATS = 3
# the loop's fastest time on the 2-vCPU Xeon VM the benchmark was written on
REFERENCE_S = 0.75e-3
# wide enough to hold a job's own brackets however short the job
MIN_WINDOW_S = 1e-3


def _loop() -> int:
    d: dict = {}
    for i in range(LOOP_N):
        k = (i & 255, i % 7)
        d[k] = d.get(k, 0) + i
    return len(d)


def loop_seconds() -> float:
    """Median time of the loop over a few back-to-back repeats."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scale(loop_samples: list[float], sensitivity: float) -> float:
    """Factor taking a time measured among these loop samples to the
    reference speed."""
    return (REFERENCE_S * len(loop_samples) / sum(loop_samples)) ** sensitivity


class Meter:
    """Loop samples, each with the time of its edge nearest the job it
    brackets (microseconds from the job's start or end)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def before(self) -> None:
        s = loop_seconds()
        self.samples.append((time.perf_counter(), s))

    def after(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, loop_seconds()))

    def scale(self, start: float, end: float, sensitivity: float) -> float:
        d = max(end - start, MIN_WINDOW_S)
        return scale([s for t, s in self.samples if start - d <= t <= end + d],
                     sensitivity)
