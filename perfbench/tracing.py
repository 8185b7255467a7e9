"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, item id): `parent` is the index of the
enclosing span in `Tracer.spans` (-1 for a root span) and `item` is the id
of the benchmark item the span belongs to. Spans are kept in memory and
written out once the run ends, so the timed loop does no I/O.

Spans are recorded by the benchmark's own code around each public call it
makes into a smallpoints module; nothing inside the package is traced.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    def begin_item(self, item_id: int) -> None:
        pass

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value=1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        t0 = perf_counter()
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = perf_counter()
        tr.bookkeeping_s += self.start - t0
        return self

    def __exit__(self, *exc):
        t2 = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans[self.index] = (self.name, self.start, t2, parent, tr.item)
        tr.bookkeeping_s += perf_counter() - t2
        return False


class Tracer:
    """Records spans and counts; derives busy and self time per span name."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of the open spans, innermost last
        self.counts = Counter()
        self.item = -1
        # time spent inside the tracer's own bookkeeping, the traced run's
        # extra wall time against an untraced run of the same items
        self.bookkeeping_s = 0.0

    def begin_item(self, item_id: int) -> None:
        self.item = item_id

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def summary(self):
        """{name: (calls, busy_s, self_s)} over every finished span.

        Self time is the span's duration minus the part of it covered by
        its direct children; children of one span never overlap because
        the benchmark runs one item at a time on one thread."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time[i]
        return {n: (calls[n], busy[n], self_s[n]) for n in calls}

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")
