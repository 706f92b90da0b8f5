"""Lightweight run tracing: nested timed spans with JSONL export.

A :class:`Tracer` records :class:`SpanRecord` entries into an in-memory
buffer.  Spans nest through an explicit stack (the simulator is
single-threaded), so a fleet run shows up as one root span with one
child span per tick batch, query, or trip — enough structure to see
where wall-time goes without a full profiler.

The default process tracer is a :class:`NullTracer` whose ``span()``
returns one shared, stateless context manager, so an un-observed run
pays a single attribute lookup per span site.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.errors import ObservabilityError


@dataclass(slots=True)
class SpanRecord:
    """One finished (or in-flight) timed span."""

    name: str
    start: float
    span_id: int
    parent_id: int | None
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span from inside the block."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager for one live span on one tracer."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        self._tracer._stack.append(self.record)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        record = self.record
        stack = tracer._stack
        if record.end is not None and record not in stack:
            # Double exit of an already-finished span: count it, but do
            # not re-finish (the buffer must hold each span once).
            tracer.mismatched += 1
            return False
        record.end = tracer._clock()
        if exc_type is not None:
            record.attrs.setdefault("error", exc_type.__name__)
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:
            # Out-of-order exit: this span closed while children it
            # opened are still nominally live.  Unwind to the matching
            # record so later spans get correct parents; the popped
            # children stay open and finish (counted again) whenever
            # their own __exit__ fires.
            tracer.mismatched += 1
            while stack[-1] is not record:
                stack.pop()
            stack.pop()
        else:
            # Already unwound by an ancestor's out-of-order exit.
            tracer.mismatched += 1
        tracer._finish(record)
        return False


class Tracer:
    """Collects nested timed spans into a bounded in-memory buffer."""

    enabled = True

    def __init__(self, max_spans: int = 100_000, clock=time.perf_counter) -> None:
        if max_spans < 1:
            raise ObservabilityError(
                f"max_spans must be positive, got {max_spans}"
            )
        self.max_spans = max_spans
        self.dropped = 0
        self.mismatched = 0
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._clock = clock
        self._next_id = 1

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """A context manager timing ``name``; nests under any open span."""
        parent_id = self._stack[-1].span_id if self._stack else None
        record = SpanRecord(
            name=name,
            start=self._clock(),
            span_id=self._next_id,
            parent_id=parent_id,
            attrs=dict(attrs),
        )
        self._next_id += 1
        return _ActiveSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(record)

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        """Drop all finished spans (open spans keep nesting correctly)."""
        self.spans.clear()
        self.dropped = 0
        self.mismatched = 0

    def spans_named(self, name: str) -> list[SpanRecord]:
        """All finished spans called ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]

    def total_time(self, name: str) -> float:
        """Summed duration of all finished spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def open_spans(self) -> list[SpanRecord]:
        """Spans entered but not yet exited, outermost first."""
        return list(self._stack)

    def to_dicts(self, include_open: bool = False) -> list[dict[str, Any]]:
        dicts = [s.to_dict() for s in self.spans]
        if include_open:
            for record in self._stack:
                dicts.append({**record.to_dict(), "open": True})
        return dicts

    def export_jsonl(self, target: str | TextIO) -> int:
        """Write one JSON object per span; returns the span count.

        Finished spans come first (completion order); spans still open
        at export time follow, outermost first, with ``"end": null``
        and an ``"open": true`` marker so a partial trace (crash, or an
        export taken mid-run) is distinguishable from a clean one.
        ``target`` is a path or an open text stream.
        """
        lines = [json.dumps(d, sort_keys=True)
                 for d in self.to_dicts(include_open=True)]
        payload = "\n".join(lines) + ("\n" if lines else "")
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            target.write(payload)
        return len(lines)


class _NullSpan:
    """A reusable no-op context manager (stateless, shared)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The do-nothing tracer installed by default."""

    enabled = False

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        return _NULL_SPAN

__all__ = [
    "NullTracer",
    "SpanRecord",
    "Tracer",
]
