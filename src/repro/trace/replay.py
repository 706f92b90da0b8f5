"""Deterministic replay of a recorded workload trace.

:class:`TraceReplayer` re-drives a trace against a *fresh*
:class:`~repro.dbms.database.MovingObjectDatabase` (and, for queries
recorded through the batch path, a fresh
:class:`~repro.dbms.batch.BatchQueryEngine`), recomputes every answer,
and compares its digest byte-for-byte against the recorded one.  A
clean report proves the run is reproducible; a mismatch pinpoints the
first diverging event.

Module-level imports stay stdlib-only (plus the trace siblings) so the
DBMS layer can import the recorder API without a cycle; the heavy
``dbms``/``index``/``geometry`` imports happen lazily at replay time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ReproError, SpecReader, TraceError
from repro.trace import events as ev
from repro.trace.events import TraceEvent, answer_digest
from repro.trace.recorder import read_trace, record_index_digest

if TYPE_CHECKING:
    from repro.geometry.bbox import Rect2D

#: Replay modes: honour the recorded engine, or force one path.
MODES = ("auto", "sequential", "batch")

#: Query kinds only a database call can answer (not a batch).
_DB_ONLY_KINDS = ("nearest",)

#: Events the replayed machinery re-emits by itself.
_DERIVED_KINDS = (ev.CACHE, ev.INDEX_INSERT, ev.INDEX_REPLACE,
                  ev.INDEX_REMOVE)


def _decoded(event: TraceEvent, decode: Callable[..., Any],
             *args: Any) -> Any:
    """``decode(*args)``, whose domain error gains the event's seq."""
    try:
        return decode(*args)
    except ReproError as exc:
        raise type(exc)(f"event {event.seq} ({event.kind}): {exc}") from exc


def _mobile_insert(spec: dict[str, Any]) -> dict[str, Any]:
    """The checked arguments of an ``insert_mobile`` event."""
    from repro.core.serialize import policy_from_spec
    from repro.geometry.point import Point

    fields = SpecReader(spec, TraceError, "insert_mobile")
    direction = fields.get("direction", int)
    if direction not in (0, 1):
        raise fields.fail(f"direction must be 0 or 1, got {direction}")
    return dict(
        object_id=fields.get("object_id", str),
        class_name=fields.get("class_name", str),
        route_id=fields.get("route_id", str), t=fields.number("time"),
        position=Point(*fields.pair("position")), direction=direction,
        speed=fields.number("speed"),
        policy=policy_from_spec(spec.get("policy")),
        max_speed=fields.number("max_speed"),
        attributes=fields.get("attributes", dict, None))


def _stationary_insert(spec: dict[str, Any]) -> dict[str, Any]:
    """The checked arguments of an ``insert_stationary`` event."""
    from repro.geometry.point import Point

    fields = SpecReader(spec, TraceError, "insert_stationary")
    return dict(
        object_id=fields.get("object_id", str),
        class_name=fields.get("class_name", str),
        position=Point(*fields.pair("position")),
        attributes=fields.get("attributes", dict, None))


def _index_tuning(spec: dict[str, Any]) -> dict[str, Any]:
    """The checked arguments of an ``index_config`` event."""
    fields = SpecReader(spec, TraceError, "index_config")
    return dict(slab_minutes=fields.number("slab_minutes", 5.0),
                max_entries=fields.get("max_entries", int, 8),
                min_entries=fields.get("min_entries", int, 3))


def _positions(event: TraceEvent) -> list[list[float]]:
    """The plane positions an event names, read through checked fields."""
    fields = SpecReader(event.data, TraceError, event.kind)
    if event.kind == ev.ROUTE_REGISTER:
        return fields.pairs("vertices")
    if event.kind in (ev.INSERT_MOBILE, ev.INSERT_STATIONARY):
        return [fields.pair("position")]
    if event.kind == ev.UPDATE:
        return [[fields.number("x"), fields.number("y")]]
    return []


def _trace_bounds(trace_events: Sequence[TraceEvent]) -> "Rect2D":
    """Spatial extent of a trace, for ``--shards`` override grids.

    The bounding rectangle of every route vertex and every insert,
    update and stationary position, grown by 0.5 when degenerate, the
    unit square when there is none.  Any bounds yield correct answers
    (partitionings clamp outside points to the nearest cell).
    """
    from repro.geometry.bbox import Rect2D

    xs: list[float] = []
    ys: list[float] = []
    for event in trace_events:
        for x, y in _decoded(event, _positions, event):
            xs.append(float(x))
            ys.append(float(y))
    if not xs:
        return Rect2D(0.0, 0.0, 1.0, 1.0)
    rect = Rect2D(min(xs), min(ys), max(xs), max(ys))
    if rect.min_x == rect.max_x or rect.min_y == rect.max_y:
        return rect.expanded(0.5)
    return rect


@dataclass(frozen=True, slots=True)
class ReplayMismatch:
    """One diverging event: recorded vs. recomputed digest."""

    seq: int
    kind: str
    expected: str
    actual: str
    detail: str = ""


@dataclass(slots=True)
class ReplayReport:
    """Outcome of one replay: totals plus every mismatch found."""

    events_total: int = 0
    queries_checked: int = 0
    index_checks: int = 0
    shard_checks: int = 0
    mismatches: list[ReplayMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class TraceReplayer:
    """Re-drives a trace and verifies answer digests.

    ``mode`` selects the query path: ``auto`` (default) replays each
    query through the engine that recorded it, ``sequential`` forces
    every query through ``Database`` calls, ``batch`` forces groupable
    kinds through a :class:`BatchQueryEngine` (nearest queries always
    go through the database — the batch engine does not answer them).
    Digests must match in every mode: a single query is a batch of one
    through the same query core.
    """

    def __init__(self, mode: str = "auto",
                 shards: int | None = None) -> None:
        if mode not in MODES:
            raise TraceError(
                f"unknown replay mode {mode!r}; expected one of {MODES}"
            )
        if shards is not None and shards < 1:
            raise TraceError(f"shards must be >= 1, got {shards}")
        self.mode = mode
        #: Shard-count override: replay the workload over this many
        #: shards regardless of how it was recorded.  Answer digests
        #: must still match (sharding is answer-invariant); index
        #: content and shard-routing checks are skipped because the
        #: physical layout legitimately differs.
        self.shards = shards
        self._db: Any = None
        self._engine: Any = None
        self._events: Sequence[TraceEvent] = ()

    def replay_file(self, path: str) -> ReplayReport:
        """Load a JSONL trace from ``path`` and replay it."""
        _, trace_events = read_trace(path)
        return self.replay(trace_events)

    def replay(self, trace_events: Sequence[TraceEvent]) -> ReplayReport:
        """Replay ``trace_events`` in order; returns the report."""
        self._events = trace_events
        report = ReplayReport(events_total=len(trace_events))
        position = 0
        while position < len(trace_events):
            event = trace_events[position]
            if (event.kind == ev.QUERY
                    and self._effective_engine(event) == "batch"):
                group = [event]
                batch_id = event.data.get("batch")
                position += 1
                while position < len(trace_events):
                    nxt = trace_events[position]
                    if (nxt.kind != ev.QUERY
                            or self._effective_engine(nxt) != "batch"
                            or nxt.data.get("batch") != batch_id):
                        break
                    group.append(nxt)
                    position += 1
                self._replay_batch(group, report)
                continue
            self._apply(event, report)
            position += 1
        return report

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def _require_db(self, event: TraceEvent) -> Any:
        if self._db is None:
            raise TraceError(
                f"event {event.seq} ({event.kind}) arrived before any "
                "db_config event; the trace is truncated or reordered"
            )
        return self._db

    def _effective_engine(self, event: TraceEvent) -> str:
        if event.data.get("kind") in _DB_ONLY_KINDS:
            return "db"
        if self.mode == "auto":
            return event.data.get("engine", "db")
        return "db" if self.mode == "sequential" else "batch"

    def _apply(self, event: TraceEvent, report: ReplayReport) -> None:
        data = event.data
        if event.kind == ev.DB_CONFIG:
            self._db = _decoded(event, self._build_database, data,
                                self._override_grid())
            self._engine = None
            return
        if event.kind in _DERIVED_KINDS:
            return  # the re-driven machinery re-emits them
        db = self._require_db(event)
        if event.kind == ev.CLASS_DEFINE:
            from repro.dbms.schema import ObjectClass

            db.schema.define(_decoded(event, ObjectClass.from_spec, data))
        elif event.kind == ev.ROUTE_REGISTER:
            from repro.routes.route import Route

            db.register_route(_decoded(event, Route.from_spec, data))
        elif event.kind == ev.INSERT_MOBILE:
            db.insert_moving_object(**_decoded(event, _mobile_insert, {
                **data, "time": event.time, "object_id": event.object_id}))
        elif event.kind == ev.INSERT_STATIONARY:
            db.insert_stationary_object(**_decoded(
                event, _stationary_insert,
                {**data, "object_id": event.object_id}))
        elif event.kind == ev.REMOVE_OBJECT:
            db.remove_object(event.object_id)
        elif event.kind == ev.UPDATE:
            from repro.dbms.update_log import PositionUpdateMessage

            db.process_update(_decoded(
                event, PositionUpdateMessage.from_spec,
                {**data, "time": event.time, "object_id": event.object_id}))
        elif event.kind == ev.QUERY:
            self._check(event, self._ask(db, event), report)
        elif event.kind == ev.INDEX_CONFIG:
            db.rebuild_index(**_decoded(event, _index_tuning, data))
            self._engine = None  # the swap invalidates cached traversals
        elif event.kind == ev.SHARD_ROUTE:
            if self.shards is None and db.partitioning is not None:
                report.shard_checks += 1
                actual_shard = _decoded(event, db.owner_of, event.object_id)
                if actual_shard != data.get("shard"):
                    report.mismatches.append(ReplayMismatch(
                        seq=event.seq, kind=event.kind,
                        expected=str(data.get("shard")),
                        actual=str(actual_shard),
                        detail="shard routing diverged",
                    ))
            # Under a --shards override the layout legitimately differs.
        elif event.kind == ev.INDEX_DIGEST:
            if self.shards is not None:
                pass  # override changes the physical index layout
            else:
                actual = record_index_digest(db)
                report.index_checks += 1
                if actual != data.get("digest"):
                    report.mismatches.append(ReplayMismatch(
                        seq=event.seq, kind=event.kind,
                        expected=str(data.get("digest")),
                        actual=str(actual),
                        detail="index content digest diverged",
                    ))
        else:  # pragma: no cover - KINDS is closed in events.py
            raise TraceError(f"unreplayable event kind {event.kind!r}")

    def _override_grid(self) -> Any:
        """The ``shards`` override's grid; a bad position is its own
        event's error, so it is read outside the ``db_config``'s."""
        if self.shards is None:
            return None
        from repro.shard.partition import uniform_grid_for

        return uniform_grid_for(_trace_bounds(self._events), self.shards)

    def _build_database(self, data: dict[str, Any], grid: Any) -> Any:
        from repro.dbms.database import MovingObjectDatabase

        fields = SpecReader(data, TraceError, "db_config")
        index_name = fields.get("index", str, "none")
        slab_minutes = fields.number("slab_minutes", 5.0)
        horizon = fields.number("horizon", 120.0)
        shards = fields.get("shards", int, None)
        index: Any
        if index_name in ("none", "NoneType"):
            # No index to own: an index-free database replays the same
            # answers whatever shard count the trace names.
            return MovingObjectDatabase(horizon=horizon)
        if index_name == "TimeSpaceIndex":
            from repro.index.timespace import TimeSpaceIndex

            index = TimeSpaceIndex(slab_minutes=slab_minutes)
        elif index_name == "LinearScanIndex":
            from repro.index.scan import LinearScanIndex

            index = LinearScanIndex()
        else:
            raise TraceError(
                f"trace was recorded with unknown index {index_name!r}"
            )
        if grid is None and shards is not None:
            from repro.shard.partition import partitioning_from_spec

            grid = partitioning_from_spec(fields.get("partitioning", dict))
        return MovingObjectDatabase(index=index, horizon=horizon,
                                    partitioning=grid)

    @staticmethod
    def _query(event: TraceEvent) -> Any:
        from repro.dbms.refine import query_from_spec

        return _decoded(event, query_from_spec, event.data.get("kind"),
                        event.time, event.object_id, event.data)

    def _ask(self, db: Any, event: TraceEvent) -> Any:
        """One query event through the database's public methods."""
        if event.data.get("kind") in _DB_ONLY_KINDS:
            from repro.dbms.refine import nearest_from_spec

            return _decoded(event, db.nearest, *_decoded(
                event, nearest_from_spec, event.time, event.data))
        return _decoded(event, db.ask, self._query(event))

    def _replay_batch(self, group: list[TraceEvent],
                      report: ReplayReport) -> None:
        from repro.dbms.batch import BatchQueryEngine

        db = self._require_db(group[0])
        if self._engine is None:
            self._engine = BatchQueryEngine(db)
        queries = [self._query(event) for event in group]
        try:
            answers = self._engine.run(queries)
        except ReproError:
            # A batch refuses its first bad query; put alone, it names it.
            for event, query in zip(group, queries):
                _decoded(event, self._engine.run, [query])
            raise
        for event, answer in zip(group, answers):
            self._check(event, answer, report)

    def _check(self, event: TraceEvent, answer: Any,
               report: ReplayReport) -> None:
        report.queries_checked += 1
        expected = event.data.get("digest")
        actual = answer_digest(answer)
        if actual != expected:
            report.mismatches.append(ReplayMismatch(
                seq=event.seq, kind=event.kind,
                expected=str(expected), actual=actual,
                detail=f"{event.data.get('kind')} query answer diverged",
            ))


__all__ = [
    "MODES",
    "ReplayMismatch",
    "ReplayReport",
    "TraceReplayer",
]
