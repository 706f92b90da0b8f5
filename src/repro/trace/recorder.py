"""The flight recorder: capture, serialize, and load workload traces.

The recorder is the probe's event sink (:mod:`repro.obs.probe`): a hook
states ``p.event(KIND, ...)`` or ``p.queries(...)`` and the installed
:class:`TraceRecorder` appends it.  The slot defaults to a no-op
:class:`NullRecorder` (``enabled`` is ``False``), and
:func:`use_recorder` swaps a live recorder in for the duration of a
``with`` block — the generic slot installer, bound here.

Serialization is JSONL (:func:`write_trace` / :func:`read_trace`): a
header line carrying the schema id, event count, and free-form
metadata, then one canonical-JSON event per line.
"""

from __future__ import annotations

import json
from typing import IO, Any, Mapping

from repro.errors import TraceError
from repro.obs.probe import slot
from repro.trace.events import (
    INDEX_DIGEST,
    KINDS,
    QUERY,
    READABLE_SCHEMAS,
    SCHEMA,
    TraceEvent,
    answer_digest,
)


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records in memory.

    ``enabled`` is a class attribute: the probe folds it into its own
    flag when the recorder is installed.
    """

    enabled = True
    #: How the probe digests an answer for :meth:`record_query`.
    digest = staticmethod(answer_digest)

    def __init__(self, meta: Mapping[str, Any] | None = None) -> None:
        self.meta: dict[str, Any] = dict(meta or {})
        self._events: list[TraceEvent] = []
        self._next_seq = 0
        self._next_batch = 0

    def record(self, kind: str, *, time: float | None = None,
               object_id: str | None = None, **data: Any) -> TraceEvent:
        """Append an event; ``data`` becomes its JSON payload."""
        event = TraceEvent(self._next_seq, kind, time, object_id, data)
        self._next_seq += 1
        self._events.append(event)
        return event

    def record_query(self, query_kind: str, digest: str, *,
                     time: float, object_id: str | None = None,
                     engine: str = "db", batch: int | None = None,
                     index: int | None = None,
                     **params: Any) -> TraceEvent:
        """Append a query event.

        Separate from :meth:`record` because the payload needs its own
        ``kind`` key (position/range/within/proximity/nearest) next to
        the answer digest and the issuing engine (``db`` for the
        sequential path, ``batch`` with a batch id and intra-batch
        index for :class:`~repro.dbms.batch.BatchQueryEngine`).
        """
        data: dict[str, Any] = {"kind": query_kind, "digest": digest,
                                "engine": engine}
        if batch is not None:
            data["batch"] = batch
        if index is not None:
            data["index"] = index
        data.update(params)
        event = TraceEvent(self._next_seq, QUERY, time, object_id, data)
        self._next_seq += 1
        self._events.append(event)
        return event

    def next_batch_id(self) -> int:
        """A fresh id grouping one ``BatchQueryEngine.run()`` call."""
        batch = self._next_batch
        self._next_batch += 1
        return batch

    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [event.to_dict() for event in self._events]

    def clear(self) -> None:
        self._events.clear()
        self._next_seq = 0
        self._next_batch = 0

    def __len__(self) -> int:
        return len(self._events)


class NullRecorder(TraceRecorder):
    """Default recorder: records nothing, costs one attribute test."""

    enabled = False

    def record(self, kind: str, *, time: float | None = None,
               object_id: str | None = None, **data: Any) -> None:  # type: ignore[override]
        return None

    def record_query(self, query_kind: str, digest: str, *,
                     time: float, object_id: str | None = None,
                     engine: str = "db", batch: int | None = None,
                     index: int | None = None,
                     **params: Any) -> None:  # type: ignore[override]
        return None

    def next_batch_id(self) -> int:
        return 0


get_recorder, set_recorder, use_recorder = slot(
    "recorder", TraceRecorder, NullRecorder())


def record_index_digest(database: Any,
                        recorder: TraceRecorder | None = None) -> str | None:
    """Record the database index's content digest as a checkpoint event.

    Returns the digest, or ``None`` when the database has no index (or
    an index that keeps no digest).  The event is appended to
    ``recorder`` if given, else to the active recorder when enabled.
    """
    index = getattr(database, "_index", None)
    if index is None:
        return None
    # A sharded database digests each shard's entries; its label is the
    # one the trace format has always carried for that layout.
    if getattr(database, "partitioning", None) is None:
        value, label = index.content_digest(), type(index).__name__
    else:
        value, label = database.partition_digest(), "PartitionedIndex"
    if value is None:
        return None
    target = recorder if recorder is not None else get_recorder()
    if target.enabled:
        target.record(INDEX_DIGEST, digest=value, index=label)
    return value


def write_trace(recorder: TraceRecorder, target: str | IO[str]) -> int:
    """Write ``recorder``'s events as JSONL; returns the event count.

    Line 1 is the header ``{"schema", "events", "meta"}``; every
    following line is one event, keys sorted so traces diff cleanly.
    """
    events = recorder.to_dicts()
    header = {"schema": SCHEMA, "events": len(events),
              "meta": recorder.meta}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(event, sort_keys=True) for event in events)
    text = "\n".join(lines) + "\n"
    if isinstance(target, str):
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise TraceError(f"cannot write trace {target!r}: {exc}") from exc
    else:
        target.write(text)
    return len(events)


def read_trace(source: str | IO[str]) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Load a JSONL trace; returns ``(meta, events)``.

    Raises :class:`TraceError` on a missing/foreign schema header, a
    malformed line, an unknown event kind, or an event-count mismatch.
    """
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise TraceError(f"cannot read trace {source!r}: {exc}") from exc
    else:
        raw = source.read()
    lines = [line for line in raw.splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace: missing schema header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"unreadable trace header: {exc}") from exc
    if (not isinstance(header, dict)
            or header.get("schema") not in READABLE_SCHEMAS):
        raise TraceError(
            f"unsupported trace schema {header.get('schema') if isinstance(header, dict) else header!r}; "
            f"this build reads {', '.join(READABLE_SCHEMAS)}"
        )
    events: list[TraceEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            document = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad JSON on line {lineno}: {exc}") from exc
        if not (isinstance(document, dict)
                and isinstance(document.get("seq"), int)
                and isinstance(document.get("data", {}), dict)):
            raise TraceError(f"line {lineno} is not an event object "
                             "(an int seq and an object data)")
        kind = document.get("kind")
        if kind not in KINDS:
            raise TraceError(f"unknown event kind {kind!r} on line {lineno}")
        events.append(TraceEvent(
            seq=document["seq"], kind=kind, time=document.get("time"),
            object_id=document.get("object_id"),
            data=document.get("data", {}),
        ))
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise TraceError(
            f"trace declares {declared} events but contains {len(events)}"
        )
    return dict(header.get("meta") or {}), events


__all__ = [
    "NullRecorder",
    "TraceRecorder",
    "get_recorder",
    "read_trace",
    "record_index_digest",
    "set_recorder",
    "use_recorder",
    "write_trace",
]
