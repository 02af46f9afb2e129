"""Span-based tracing with JSON and Chrome ``trace_event`` export.

A :class:`Tracer` records nested :class:`SpanRecord` entries into a bounded
ring buffer.  Spans open via the ``with tracer.span("name")`` context
manager (nesting tracked per thread), or are stamped after the fact with
:meth:`Tracer.add_span` when the caller already measured start/duration —
the query pipeline uses that to lay its per-stage self times out as a flame
chart without re-timing anything.

Exports:

- :meth:`Tracer.export` — JSON-ready span dicts (ids + parent ids), which
  round-trip through :func:`spans_from_export`;
- :meth:`Tracer.to_chrome` — the Chrome ``trace_event`` JSON object; write
  it to a file and load it in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class SpanRecord:
    """One finished span; times are ``perf_counter`` seconds."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    duration: float
    thread: str
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> None:
        """Attach attributes (visible in every export format)."""
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        """JSON-ready rendering (milliseconds)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start * 1e3, 6),
            "duration_ms": round(self.duration * 1e3, 6),
            "thread": self.thread,
            "attrs": self.attrs,
        }


def spans_from_export(doc: list[dict]) -> list[SpanRecord]:
    """Rebuild :class:`SpanRecord` objects from :meth:`Tracer.export` output."""
    return [
        SpanRecord(
            span_id=entry["span_id"],
            parent_id=entry["parent_id"],
            name=entry["name"],
            start=entry["start_ms"] / 1e3,
            duration=entry["duration_ms"] / 1e3,
            thread=entry.get("thread", "main"),
            attrs=dict(entry.get("attrs", {})),
        )
        for entry in doc
    ]


class Tracer:
    """Bounded collector of nested spans (thread-safe, per-thread nesting)."""

    def __init__(self, capacity: int = 8192, enabled: bool = True):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._enabled = enabled

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded."""
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Toggle recording (open spans finish recording either way)."""
        self._enabled = bool(enabled)

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[SpanRecord]]:
        """Open a nested span; yields the record (or ``None`` when disabled)."""
        if not self._enabled:
            yield None
            return
        stack = self._stack()
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else None,
            name=name,
            start=time.perf_counter(),
            duration=0.0,
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        stack.append(record.span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.duration = time.perf_counter() - record.start
            with self._lock:
                self._spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[dict] = None,
        parent_id: Optional[int] = None,
    ) -> Optional[SpanRecord]:
        """Record an already-measured span (``perf_counter`` seconds).

        Parents to the innermost open span of the calling thread unless
        ``parent_id`` is given explicitly.
        """
        if not self._enabled:
            return None
        if parent_id is None:
            parent_id = self.current_span_id()
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start=start,
            duration=max(0.0, duration),
            thread=threading.current_thread().name,
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self._spans.append(record)
        return record

    # -- export -------------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """The recorded spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict]:
        """JSON-ready span list (see :func:`spans_from_export`)."""
        return [record.as_dict() for record in self.spans()]

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` document for the recorded spans.

        Complete ("X") events with microsecond timestamps rebased to the
        earliest span, one Chrome ``tid`` lane per Python thread name.
        """
        records = self.spans()
        if not records:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        epoch = min(record.start for record in records)
        lanes: dict[str, int] = {}
        events = []
        for record in records:
            tid = lanes.setdefault(record.thread, len(lanes) + 1)
            event = {
                "name": record.name,
                "ph": "X",
                "ts": round((record.start - epoch) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
            }
            if record.attrs:
                event["args"] = {k: _jsonable(v) for k, v in record.attrs.items()}
            events.append(event)
        events.sort(key=lambda e: (e["tid"], e["ts"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(value):
    """Coerce attribute values to something JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# The process-wide tracer, ``repro.obs.tracer()``.
TRACER = Tracer()
