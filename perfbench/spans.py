"""In-memory span recording for the traced pass.

A span is (name, start, end, parent, item): the layer it times, its
perf_counter interval, the index of the enclosing span (-1 at the top) and
the index of the benchmark item it belongs to (-1 during set-up).  Spans sit
only at the benchmark's own call sites into the package, so a span around a
public function also contains whatever that function calls internally.
"""

from __future__ import annotations

from time import perf_counter


class _Null:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class NullTracer:
    """Untraced passes: every span is the same no-op context manager."""

    item = -1

    def span(self, name):
        return _NULL


class _Span:
    __slots__ = ("tr", "name", "idx")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, perf_counter(), 0.0, parent, tr.item])
        tr.stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tr
        tr.spans[self.idx][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """The traced pass: spans kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1

    def span(self, name):
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out
