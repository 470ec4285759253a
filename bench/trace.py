"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions.  A span is ``(name, start, end, parent,
request id)``; spans of one request share the request id.  Nothing is
written while the benchmark measures — :meth:`SpanRecorder.flush` writes
the JSONL file once, at the end.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    request_id: int | None
    start_s: float
    end_s: float = 0.0

    @property
    def duration_ms(self) -> float:
        return (self.end_s - self.start_s) * 1000.0


class _OpenSpan:
    """Context manager for one span (a class, not a generator: cheaper)."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._recorder._stack().append(self._span)
        self._span.start_s = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.end_s = time.perf_counter()
        self._recorder._stack().pop()
        self._recorder.spans.append(self._span)
        return False


class SpanRecorder:
    """Collects finished spans; nesting follows each thread's with-stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)     # next() is atomic under the GIL

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request_id: int | None = None) -> _OpenSpan:
        """Open a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        return _OpenSpan(self, Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            request_id=request_id,
            start_s=0.0,
        ))

    def add(self, name: str, start_s: float, end_s: float,
            request_id: int | None = None) -> None:
        """Record a root span timed by the caller."""
        self.spans.append(
            Span(name, next(self._ids), None, request_id, start_s, end_s)
        )

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def durations_ms(self, name: str) -> list[float]:
        return [span.duration_ms for span in self.spans if span.name == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0.0 when none ran)."""
        durations = self.durations_ms(name)
        return sum(durations) / len(durations) if durations else 0.0

    def self_times_ms(self) -> dict[int, float]:
        """Self time per span id: duration minus what its children cover.

        Children are clipped to the parent's interval and overlapping
        children are merged, so a covered instant is subtracted once.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        result: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start_s
            for child in sorted(
                children.get(span.span_id, ()), key=lambda c: c.start_s
            ):
                start = max(child.start_s, cursor)
                end = min(child.end_s, span.end_s)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.span_id] = (
                (span.end_s - span.start_s) - covered
            ) * 1000.0
        return result

    def mean_self_ms(self, name: str) -> float:
        self_times = self.self_times_ms()
        values = [self_times[s.span_id] for s in self.spans if s.name == name]
        return sum(values) / len(values) if values else 0.0

    def flush(self, path) -> int:
        """Write every span as one JSON line; returns how many."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "request": span.request_id,
                    "start_s": span.start_s,
                    "end_s": span.end_s,
                }) + "\n")
        return len(self.spans)
