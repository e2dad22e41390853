"""In-memory span recorder used by the traced run.

A span has a name "<layer>.<call>", a start, an end, a parent span and a
number of evaluation points.  Spans nest in call order (one thread), so a
span's self time is its duration minus the durations of its direct children.
The spans are kept in flat arrays, so recording one allocates no object the
garbage collector has to track: a traced job with 10^5 callbacks would
otherwise slow itself down with collections that the untraced job never
makes.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.points = array("q")
        self._stack: list[int] = []

    def reset(self) -> None:
        self.names.clear()
        for a in (self.starts, self.ends, self.parents, self.points):
            del a[:]
        self._stack.clear()

    def _add(self, name: str, t0: float, t1: float, points: int) -> int:
        self.names.append(name)
        self.starts.append(t0)
        self.ends.append(t1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        return len(self.names) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._add(name, perf_counter(), 0.0, 0)
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.ends[i] = perf_counter()

    def wrap(self, name: str, fn):
        """A leaf-span version of a problem callable; points = evaluation points."""
        add = self._add

        def traced(y):
            t0 = perf_counter()
            out = fn(y)
            add(name, t0, perf_counter(), y.size // y.shape[-1])
            return out

        return traced

    def summary(self) -> dict:
        """Per span name: calls, points, total duration and total self time (s)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            agg = out[name]
            agg["calls"] += 1
            agg["points"] += self.points[i]
            agg["total_s"] += duration
            agg["self_s"] += duration - child[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON, times relative to the first span."""
        origin = self.starts[0] if self.names else 0.0
        rows = [
            {"name": name, "start_us": (self.starts[i] - origin) * 1e6,
             "end_us": (self.ends[i] - origin) * 1e6,
             "parent": self.parents[i], "points": self.points[i]}
            for i, name in enumerate(self.names)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
