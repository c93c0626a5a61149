"""Span recorder for the traced benchmark run (standard library only).

A span is one timed call into a layer: its name, the span that caused it
(the innermost span still open when it began), the request it belongs to,
how many elements it handled, and its start and end on the
``perf_counter_ns`` clock.  Spans are kept in memory and written out once
the run ends.  A layer's *self* time is its span's duration minus the
durations of its direct children; because the recorder is single-threaded
and strictly nested, children never overlap, so a parent's time splits
exactly into its own self time plus its children's totals.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable

__all__ = ["SpanRecorder"]

# Column indexes of one span row.
_ID, _PARENT, _REQUEST, _NAME, _ELEMS, _START, _END = range(7)


class SpanRecorder:
    """In-memory spans with parent links and one id per request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = 0

    def next_request(self) -> int:
        """Start a new request; spans begun from now on carry its id."""
        self.request += 1
        return self.request

    def begin(self, name: str, elems: int = 0) -> int:
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            [span_id, parent, self.request, name, elems, time.perf_counter_ns(), 0]
        )
        self._open.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][_END] = time.perf_counter_ns()
        if self._open.pop() != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def wrap(self, name: str, func: Callable, size: Callable | None = None) -> Callable:
        """``func`` recorded as a span named ``name`` on every call."""

        def traced(*args, **kwargs):
            span_id = self.begin(name, size(args) if size is not None else 0)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span_id)

        return traced

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds, elements."""
        child_ns = [0] * len(self.spans)
        for row in self.spans:
            if row[_PARENT] >= 0:
                child_ns[row[_PARENT]] += row[_END] - row[_START]
        out: dict[str, dict[str, int]] = {}
        for row in self.spans:
            entry = out.setdefault(
                row[_NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "elems": 0}
            )
            duration = row[_END] - row[_START]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[row[_ID]]
            entry["elems"] += row[_ELEMS]
        return out

    def children_nest(self) -> bool:
        """True when every span lies inside its parent's interval."""
        return all(
            row[_PARENT] < 0
            or (
                self.spans[row[_PARENT]][_START] <= row[_START]
                and row[_END] <= self.spans[row[_PARENT]][_END]
            )
            for row in self.spans
        )

    def write(self, path: str) -> None:
        """Every span as JSON lines: id, parent, request, name, elems, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")
