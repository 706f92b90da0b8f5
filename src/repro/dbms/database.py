"""The moving-objects database facade.

:class:`MovingObjectDatabase` ties together the pieces the paper
describes: a route catalogue (§2), a schema of object classes (§2),
per-object position attributes with declared update policies (§3), an
update log (bandwidth accounting), an optional time-space index (§4.2),
and a query processor answering position queries with error bounds
(§3.3) and range queries with may/must semantics (§4.1.2).  The query
methods here are single queries put to the database's
:class:`~repro.dbms.refine.QueryCore`, which holds the one refinement
procedure and the derived-value cache every query of this database
shares; the database tells it when an object's record changes and when
the clock moves on.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any

from repro.core.policy import UpdatePolicy
from repro.core.position import PositionAttribute
from repro.dbms.moving_object import MovingObjectRecord
from repro.dbms.query import (
    NearestAnswer,
    PositionAnswer,
    RangeAnswer,
    distance_range_to_polyline,
)
from repro.dbms.schema import Schema, SpatialKind
from repro.dbms.storage import Table
from repro.dbms.update_log import PositionUpdateMessage, UpdateLog
from repro.errors import QueryError, SchemaError
from repro.obs.instrument import timed
from repro.obs.probe import probe
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.oplane import OPlane
from repro.index.rtree import SearchStats
from repro.routes.route import Route, RouteDatabase
from repro.trace.events import (
    DB_CONFIG,
    INDEX_CONFIG,
    INSERT_MOBILE,
    INSERT_STATIONARY,
    REMOVE_OBJECT,
    ROUTE_REGISTER,
    SHARD_ROUTE,
    digest,
)

# Last on purpose: this is where `import repro` first loads numpy (see
# the note above that import in repro/dbms/refine.py).
from repro.dbms.refine import (
    Answer,
    PositionQuery,
    ProximityQuery,
    Query,
    QueryCore,
    RangeQuery,
    WithinDistanceQuery,
    check_point,
)

if TYPE_CHECKING:
    from repro.shard.partition import Partitioning


class MovingObjectDatabase:
    """A database of moving (and stationary) objects.

    ``index`` may be a :class:`~repro.index.timespace.TimeSpaceIndex`,
    a :class:`~repro.index.scan.LinearScanIndex`, or ``None`` (range
    queries then scan the record table directly).  ``horizon`` is the
    o-plane time span indexed ahead of each update (the paper's trip
    cutoff ``Z``).

    A :class:`~repro.shard.partition.Partitioning` makes the database
    sharded: the one index still holds every o-plane, and the plan
    gives each indexed object an *owner*, the shard of its start point
    at its first insert.  The owner is kept across updates and index
    rebuilds and dropped on removal; it changes no answer, only what
    the shard telemetry and the flight recorder's routing checks read
    (``shard_route`` events, per-shard update counts and sizes, and per
    searched window the number of distinct owners among its
    candidates, its fan-out).
    """

    def __init__(self, schema: Schema | None = None, index: Any = None,
                 horizon: float = 120.0,
                 partitioning: Partitioning | None = None) -> None:
        if not 0 < horizon < math.inf:
            raise QueryError(
                f"horizon must be positive and finite, got {horizon}")
        if partitioning is not None and index is None:
            raise QueryError("a partitioning needs an index to own")
        self.routes = RouteDatabase()
        self.schema = schema or Schema()
        self.update_log = UpdateLog()
        self.horizon = horizon
        self._index = index
        self.partitioning = partitioning
        #: Indexed object id -> owning shard (under a partitioning), and
        #: how many objects each shard owns.
        self._owner: dict[str, int] = {}
        self._owned = [0] * (partitioning.num_shards
                             if partitioning is not None else 0)
        self._tables: dict[str, Table] = {}
        self._records: dict[str, MovingObjectRecord] = {}
        #: Stationary point objects: id -> (class name, fixed position).
        self._stationary: dict[str, tuple[str, Point]] = {}
        #: Cached id set of stationary objects, rebuilt only when the
        #: stationary population changes (queries consume it per call).
        self._stationary_ids: frozenset[str] | None = None
        #: Min-heap of ``(starttime, object_id)`` with lazy deletion:
        #: tracks the earliest o-plane start so the indexed-horizon
        #: coverage check is O(1) amortised instead of a full scan.
        self._horizon_heap: list[tuple[float, str]] = []
        #: Latest time the database has seen (inserts and updates).
        #: Queries must not precede it: position attributes are not
        #: multi-versioned (valid time = transaction time, §2), so only
        #: "current or future" queries are answerable (§4.2).
        self.clock_time = 0.0
        #: The query processor and its derived-value cache.
        self._core = QueryCore(self)
        p = probe()
        if p.enabled:
            config = index.describe() if index is not None \
                else {"index": "none"}
            if partitioning is not None:
                config.update(shards=partitioning.num_shards,
                              partitioning=partitioning.to_spec())
                for shard in range(partitioning.num_shards):
                    p.gauge("shard_objects", 0, shard=str(shard))
            p.event(DB_CONFIG, horizon=horizon, **config)

    # ------------------------------------------------------------------
    # Catalogue management
    # ------------------------------------------------------------------

    def register_route(self, route: Route) -> None:
        """Add a route to the route database."""
        self.routes.add(route)
        p = probe()
        if p.enabled:
            p.event(ROUTE_REGISTER, **route.to_spec())

    def table(self, class_name: str) -> Table:
        """The non-spatial attribute table of an object class."""
        if class_name not in self._tables:
            object_class = self.schema.get(class_name)
            self._tables[class_name] = Table(object_class)
        return self._tables[class_name]

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def insert_moving_object(self, object_id: str, class_name: str,
                             route_id: str, t: float, position: Point,
                             direction: int, speed: float,
                             policy: UpdatePolicy, max_speed: float,
                             attributes: dict[str, Any] | None = None) -> MovingObjectRecord:
        """Register a mobile object at trip start.

        This is the paper's "at the beginning of the trip the moving
        object writes all the sub-attributes of the position attribute".
        """
        object_class = self.schema.get(class_name)
        if not object_class.is_mobile_point:
            raise SchemaError(
                f"class {class_name!r} is not a mobile point class"
            )
        if object_id in self._records or object_id in self._stationary:
            raise SchemaError(f"duplicate object id {object_id!r}")
        route = self.routes.get(route_id)
        attribute = PositionAttribute(
            starttime=t,
            route_id=route_id,
            start_x=position.x,
            start_y=position.y,
            direction=direction,
            speed=speed,
            policy=policy.name,
        )
        # Validate the start position lies on the route: the projection
        # is the record's start travel distance.
        start_travel = route.travel_distance_of(position, direction)
        self._advance_clock(t)
        record = MovingObjectRecord(
            object_id=object_id,
            class_name=class_name,
            attribute=attribute,
            policy=policy,
            max_speed=max_speed,
        )
        record._start_travel = (attribute, route, start_travel)
        self._records[object_id] = record
        heapq.heappush(self._horizon_heap, (t, object_id))
        self.table(class_name).insert(object_id, attributes)
        p = probe()
        if p.enabled:
            from repro.core.serialize import policy_to_spec

            p.event(
                INSERT_MOBILE, time=t, object_id=object_id,
                class_name=class_name, route_id=route_id,
                position=[position.x, position.y], direction=direction,
                speed=speed, max_speed=max_speed,
                policy=policy_to_spec(policy), attributes=attributes,
            )
        self._reindex(record)
        return record

    def insert_stationary_object(self, object_id: str, class_name: str,
                                 position: Point,
                                 attributes: dict[str, Any] | None = None) -> None:
        """Register a stationary point object (paper §2).

        Stationary objects have a plain ``(x, y)`` position: queries
        answer them exactly (a stationary object is always a *must*
        when its point lies in the region).
        """
        object_class = self.schema.get(class_name)
        if object_class.spatial_kind is not SpatialKind.POINT:
            raise SchemaError(
                f"class {class_name!r} is not a point class"
            )
        if object_class.is_mobile_point:
            raise SchemaError(
                f"class {class_name!r} is mobile; use insert_moving_object"
            )
        if object_id in self._records or object_id in self._stationary:
            raise SchemaError(f"duplicate object id {object_id!r}")
        self._stationary[object_id] = (class_name, position)
        self._stationary_ids = None
        self.table(class_name).insert(object_id, attributes)
        p = probe()
        if p.enabled:
            p.event(
                INSERT_STATIONARY, object_id=object_id,
                class_name=class_name,
                position=[position.x, position.y], attributes=attributes,
            )

    def stationary_position(self, object_id: str) -> Point:
        """The fixed position of a stationary object."""
        try:
            return self._stationary[object_id][1]
        except KeyError:
            raise QueryError(
                f"unknown stationary object id {object_id!r}"
            ) from None

    def remove_object(self, object_id: str) -> None:
        """Drop an object (trip ended, or stationary object removed)."""
        indexed = False
        if object_id in self._stationary:
            class_name, _ = self._stationary.pop(object_id)
            self._stationary_ids = None
        else:
            class_name = self.record(object_id).class_name
            del self._records[object_id]
            self._core.forget(object_id)
            indexed = self._index is not None and object_id in self._index
        self.table(class_name).delete(object_id)
        p = probe()
        if p.enabled:
            p.event(REMOVE_OBJECT, object_id=object_id)
        if indexed:
            self._index.remove(object_id)
            shard = self._owner.pop(object_id, None)
            if shard is not None:
                self._owned[shard] -= 1
                self._publish_shard_size(shard)

    def record(self, object_id: str) -> MovingObjectRecord:
        """The server-side record of one object."""
        try:
            return self._records[object_id]
        except KeyError:
            raise QueryError(f"unknown object id {object_id!r}") from None

    def object_ids(self) -> list[str]:
        """Ids of all *mobile* objects."""
        return list(self._records)

    def stationary_ids(self) -> list[str]:
        """Ids of all stationary objects."""
        return list(self._stationary)

    def stationary_id_set(self) -> frozenset[str]:
        """Cached id set of stationary objects.

        Rebuilt only when a stationary object is inserted or removed;
        queries previously rebuilt this set on every call.
        """
        if self._stationary_ids is None:
            self._stationary_ids = frozenset(self._stationary)
        return self._stationary_ids

    def __len__(self) -> int:
        return len(self._records) + len(self._stationary)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------

    @timed("dbms_update_seconds")
    def process_update(self, message: PositionUpdateMessage) -> None:
        """Install a position update (instantaneous, §2) and re-index.

        When the message carries a policy change (§3.1: "each position
        update may change the policy"), the new policy is installed
        from its spec and the subsequent deviation bounds follow it.
        """
        record = self.record(message.object_id)
        self._advance_clock(message.time)
        self.update_log.record(message)
        new_policy_name: str | None = None
        if message.policy is not None:
            from repro.core.serialize import policy_from_spec

            if isinstance(message.policy, dict):
                record.policy = policy_from_spec(message.policy)
            else:
                # A bare name keeps the current update cost (the paper's
                # quintuple components not carried default to current).
                from repro.core.policies import make_policy

                record.policy = make_policy(
                    message.policy, record.policy.update_cost
                )
            new_policy_name = record.policy.name
        record.apply_update(
            message.time,
            Point(message.x, message.y),
            message.speed,
            route_id=message.route_id,
            direction=message.direction,
            policy=new_policy_name,
        )
        self._core.forget(record.object_id)
        heapq.heappush(
            self._horizon_heap, (record.attribute.starttime, record.object_id)
        )
        self._reindex(record)

    def _reindex(self, record: MovingObjectRecord) -> None:
        """Swap the object's o-plane in the index (the §4.2 p1/p2 swap)."""
        if self._index is None:
            return
        object_id = record.object_id
        plane = self.oplane_of(object_id)
        if object_id in self._index:
            shard = self._owner.get(object_id)
            if shard is not None:
                probe().count("shard_updates_total", shard=str(shard))
            self._index.replace(object_id, plane)
        elif self.partitioning is None:
            self._index.insert(object_id, plane)
        else:
            self._insert_owned(record, plane)

    def _insert_owned(self, record: MovingObjectRecord,
                      plane: OPlane) -> None:
        """Index a new object under its owner, its start point's shard."""
        attribute = record.attribute
        shard = self.partitioning.shard_of_point(
            attribute.start_x, attribute.start_y)
        p = probe()
        if p.enabled:
            p.event(SHARD_ROUTE, time=attribute.starttime,
                    object_id=record.object_id, shard=shard)
        self._index.insert(record.object_id, plane)
        self._owner[record.object_id] = shard
        self._owned[shard] += 1
        self._publish_shard_size(shard)

    def _publish_shard_size(self, shard: int) -> None:
        p = probe()
        if p.enabled:
            p.gauge("shard_objects", self._owned[shard], shard=str(shard))

    def owner_of(self, object_id: str) -> int:
        """The shard owning an indexed object under the partitioning."""
        try:
            return self._owner[object_id]
        except KeyError:
            raise QueryError(
                f"object {object_id!r} has no owning shard") from None

    def partition_digest(self) -> str | None:
        """One digest over each shard's index entries, in shard order
        (``None`` when the index keeps no digest): a sharded database's
        replay checkpoint."""
        owned: list[set[str]] = [
            set() for _ in range(self.partitioning.num_shards)]
        for object_id, shard in self._owner.items():
            owned[shard].add(object_id)
        parts = [self._index.content_digest(ids) for ids in owned]
        return None if None in parts else digest(parts)

    def rebuild_index(self, slab_minutes: float = 5.0,
                      max_entries: int = 8, min_entries: int = 3) -> Any:
        """Rebuild the time-space index from the current o-planes.

        Re-slabs every mobile object's plane at the requested
        granularity (§4.2's partitioning knob) and swaps the rebuilt
        index in (a sharded database keeps its plan and owners).  This
        is the supported way to retune the index on a live database —
        assigning ``_index`` directly bypasses the flight recorder and
        the run stops being replayable.
        """
        from repro.index.timespace import TimeSpaceIndex

        planes = {
            object_id: self.oplane_of(object_id)
            for object_id in self.object_ids()
        }
        rebuild = TimeSpaceIndex.bulk_build if self._index is None \
            else self._index.rebuilt
        index = rebuild(
            planes, slab_minutes=slab_minutes,
            max_entries=max_entries, min_entries=min_entries,
        )
        self._index = index
        p = probe()
        if p.enabled:
            p.event(
                INDEX_CONFIG, slab_minutes=slab_minutes,
                max_entries=max_entries, min_entries=min_entries,
            )
        return index

    def oplane_of(self, object_id: str) -> OPlane:
        """The current o-plane of an object."""
        record = self.record(object_id)
        route = self.routes.get(record.attribute.route_id)
        return OPlane(
            attribute=record.attribute,
            route=route,
            bounds=record.bounds(),
            horizon=self.horizon,
            start_travel=record.start_travel(route),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _advance_clock(self, t: float) -> None:
        if t < self.clock_time - 1e-9:
            raise QueryError(
                f"write at time {t} precedes database clock {self.clock_time} "
                "(updates are instantaneous and time-ordered)"
            )
        if t > self.clock_time:
            self.clock_time = t
            # A query time the clock has passed is rejected from now on.
            self._core.evict_before(t - 1e-9)

    def _earliest_starttime(self) -> float | None:
        """The minimum ``starttime`` over all records, in O(1) amortised.

        The heap holds every starttime ever installed; entries whose
        object is gone or has since been updated are stale and popped
        lazily.  Each insert/update pushes one entry and each entry is
        popped at most once, so the scan the old implementation did per
        query is amortised away.
        """
        heap = self._horizon_heap
        while heap:
            start, object_id = heap[0]
            record = self._records.get(object_id)
            if record is not None and record.attribute.starttime == start:
                return start
            heapq.heappop(heap)
        return None

    def _check_index_coverage(self, t: float) -> None:
        """Index-backed queries must stay inside every o-plane's span.

        Each o-plane covers ``[starttime, starttime + horizon]``; a
        query beyond the earliest plane's end would silently miss
        objects, so it is rejected instead (the paper's cutoff ``Z``).
        """
        if self._index is None:
            return
        earliest_start = self._earliest_starttime()
        if earliest_start is None:
            return
        earliest_end = earliest_start + self.horizon
        if t > earliest_end + 1e-9:
            raise QueryError(
                f"query time {t} exceeds the indexed horizon "
                f"(coverage ends at {earliest_end}); raise the database "
                "horizon or query earlier"
            )

    @timed("dbms_query_seconds", kind="position")
    def position_of(self, object_id: str, t: float) -> PositionAnswer:
        """"What is the current position of m?" with error bounds (§3.3)."""
        return self._core.one(PositionQuery(object_id, t))

    @timed("dbms_query_seconds", kind="range")
    def range_query(self, polygon: Polygon, t: float,
                    stats: SearchStats | None = None,
                    where: dict[str, Any] | None = None,
                    class_name: str | None = None) -> RangeAnswer:
        """"Retrieve the objects currently in polygon G" (§4).

        With an index attached, candidates come from the time-space
        index (sublinear); otherwise every object is examined.  Either
        way, candidates are refined to exact may/must sets through
        their uncertainty intervals.  Stationary objects are answered
        exactly (always *must* when inside).

        ``where`` filters on non-spatial attribute equality and
        ``class_name`` restricts to one object class — together they
        express the introduction's "retrieve the *free cabs* currently
        within ..." directly.
        """
        return self._core.one(
            RangeQuery(polygon, t, where, class_name), stats)

    @timed("dbms_query_seconds", kind="within")
    def within_distance(self, center: Point, radius: float, t: float,
                        stats: SearchStats | None = None,
                        where: dict[str, Any] | None = None,
                        class_name: str | None = None) -> RangeAnswer:
        """"Retrieve the objects currently within ``radius`` of ``center``".

        Accepts the same ``where``/``class_name`` attribute filters as
        :meth:`range_query`.
        """
        return self._core.one(
            WithinDistanceQuery(center, radius, t, where, class_name), stats)

    @timed("dbms_query_seconds", kind="proximity")
    def within_distance_of_object(self, anchor_id: str, radius: float,
                                  t: float,
                                  where: dict[str, Any] | None = None,
                                  class_name: str | None = None) -> RangeAnswer:
        """"Retrieve the objects within ``radius`` of object ``anchor_id``".

        The introduction's second query ("the trucks that are currently
        within 1 mile of truck ABT312").  Both the anchor and the
        candidates are uncertain, so the classification uses the
        min/max distance between *pairs of uncertainty intervals*:
        may when the closest consistent placement is within ``radius``,
        must when even the farthest is.  The anchor itself is excluded
        from the answer.
        """
        return self._core.one(
            ProximityQuery(anchor_id, radius, t, where, class_name))

    def ask(self, query: Query) -> Answer:
        """One query value through its public (timed) method above."""
        if isinstance(query, PositionQuery):
            return self.position_of(query.object_id, query.time)
        filters = {"where": query.where, "class_name": query.class_name}
        if isinstance(query, RangeQuery):
            return self.range_query(query.polygon, query.time, **filters)
        if isinstance(query, WithinDistanceQuery):
            return self.within_distance(query.center, query.radius,
                                        query.time, **filters)
        return self.within_distance_of_object(
            query.object_id, query.radius, query.time, **filters)

    @timed("dbms_query_seconds", kind="nearest")
    def nearest(self, center: Point, k: int, t: float,
                where: dict[str, Any] | None = None,
                class_name: str | None = None) -> list[NearestAnswer]:
        """The ``k`` objects nearest ``center`` by optimistic distance.

        Each entry carries the minimum and maximum possible distance of
        the object from ``center`` given its uncertainty interval;
        entries are sorted by the minimum (the dispatcher's optimistic
        ordering).  An entry is marked ``certain`` when its *maximum*
        distance is below the *minimum* of every later-ranked object —
        it is then guaranteed closer, whatever the true positions.

        This query examines every (filtered) object: k-nearest needs a
        distance-ordered traversal the box index does not provide.
        """
        self._core.check_time(t)
        check_point(center, "center")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        mobile = list(self._filter_candidates(
            set(self._records), where, class_name
        ))
        entries = [
            NearestAnswer(
                object_id, *distance_range_to_polyline(center, derived[2]))
            for object_id, derived in zip(
                mobile, self._core.entries_for(mobile, t))
        ]
        for object_id in self._filter_candidates(
            self.stationary_id_set(), where, class_name
        ):
            distance = self._stationary[object_id][1].distance_to(center)
            entries.append(NearestAnswer(object_id, distance, distance))
        entries.sort(key=lambda e: (e.min_distance, e.object_id))
        top = entries[:k]
        results: list[NearestAnswer] = []
        for rank, entry in enumerate(top):
            later_minimum = min(
                (other.min_distance for other in entries[rank + 1:]),
                default=float("inf"),
            )
            results.append(
                NearestAnswer(
                    object_id=entry.object_id,
                    min_distance=entry.min_distance,
                    max_distance=entry.max_distance,
                    certain=entry.max_distance <= later_minimum,
                )
            )
        p = probe()
        if p.enabled:
            p.query(
                "nearest", results, time=t,
                center=[center.x, center.y], k=k,
                where=where, class_name=class_name,
            )
        return results

    def _filter_candidates(self, candidates: set[str] | frozenset[str],
                           where: dict[str, Any] | None,
                           class_name: str | None) -> set[str] | frozenset[str]:
        """Apply class and attribute-equality filters to candidate ids.

        With no filters the input is returned as-is (callers only
        iterate it); with filters a fresh filtered set is built.
        """
        if where is None and class_name is None:
            return candidates
        kept: set[str] = set()
        for object_id in candidates:
            if object_id in self._records:
                object_class = self._records[object_id].class_name
            elif object_id in self._stationary:
                object_class = self._stationary[object_id][0]
            else:
                continue
            if class_name is not None and object_class != class_name:
                continue
            if where:
                row = self.table(object_class).get(object_id)
                if any(row.get(k) != v for k, v in where.items()):
                    continue
            kept.add(object_id)
        return kept

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def message_count(self, object_id: str | None = None) -> int:
        """Update messages received (optionally for one object)."""
        if object_id is None:
            return self.update_log.total_messages
        return self.update_log.count_for(object_id)

    def communication_cost(self) -> float:
        """Total message cost, using each object's own update cost."""
        total = 0.0
        for message in self.update_log.messages():
            record = self._records.get(message.object_id)
            if record is None:
                continue
            total += record.policy.update_cost
        if math.isnan(total):
            raise QueryError("communication cost is NaN")
        return total

__all__ = [
    "MovingObjectDatabase",
]
