"""Spans around calls into relgain's modules, recorded from the benchmark.

The library carries no tracing of its own, so the tracer replaces module
attributes with timing wrappers: a call that goes through the wrapped name
opens a span with a parent link to the span it was made under.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
time covered by its direct children.

Every duration the benchmark reports is read from ``clock``: the CPU time of
the process.  The queries run on one thread, so on an idle machine it equals
wall time; on a shared virtual machine it leaves out the time the host gives
the CPU to other guests, which varies from minute to minute and would
otherwise set the spread between runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

clock = time.process_time


@dataclass
class Span:
    id: int
    parent: int | None
    query: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[Span] = []
        self._undo: list = []

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace module.attr; note(args, kwargs, result) returns span attrs."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.query, name, clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "query": s.query, "name": s.name,
                 "start": s.start, "end": s.end, **s.attrs} for s in self.spans]
