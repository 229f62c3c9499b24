"""In-memory spans around calls into vald's layers.

A span has a name, the layer it times, start and end (monotonic seconds),
its parent span and the id of the operation it belongs to. Spans stay in
memory until ``dump``; a layer's self time is its spans' durations minus
the parts of them that child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    layer: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = ""

    @contextlib.contextmanager
    def operation(self, op_id: str):
        prev, self._op = self._op, op_id
        try:
            with self.span(op_id, "op"):
                yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self._op, name, layer, time.monotonic())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.monotonic()
            self._stack.pop()

    def durations(self, prefix: str) -> dict[str, list[float]]:
        """Durations per span name, for names starting with prefix."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s.name.startswith(prefix):
                out.setdefault(s.name, []).append(s.end - s.start)
        return out

    def self_times(self) -> dict[str, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered, last = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, last), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    last = hi
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


class NullTracer(Tracer):
    """Records nothing: the untraced runs pay no span bookkeeping."""

    @contextlib.contextmanager
    def operation(self, op_id: str):
        yield

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        yield None
