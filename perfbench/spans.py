"""Spans recorded by the benchmark around its calls into qpwalk.

A span has a name, start and end (``time.perf_counter``, the system's
monotonic clock, so child processes can report stamps on the same
clock), the span that encloses it and the operation it belongs to.  Spans
stay in memory and are written out when the run ends.  The untraced path
is ``NullTracer``, whose ``call`` is a plain function call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        yield

    def record(self, name, start, end):
        pass

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[Span] = []
        self._op: Optional[int] = None

    @contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is not None:
            self._op = op
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 parent.id if parent else None, self._op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def record(self, name, start, end):
        """Add a finished span measured elsewhere, under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), name, start, end,
                               parent.id if parent else None, self._op))

    def count(self, name, value):
        self.counts.setdefault(name, []).append(float(value))

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, list[float]] = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.setdefault(s.name, []).append(s.end - s.start - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
            for name, values in self.counts.items():
                f.write(json.dumps({"count": name, "values": values}) + "\n")
