"""The query core: one refine skeleton and one derived-value cache.

§4 answers every range-like query the same way: the time-space index
(or a table scan) proposes *candidates*, and each candidate's
uncertainty interval is *refined* against the query region to a
may/must outcome (Theorems 5-6).  :class:`QueryCore` is that procedure,
written once::

    validate -> candidates -> filter -> screen or classify, one pass
             -> stationary objects -> RangeAnswer -> flight recorder

A query kind contributes only its *region* (:class:`_PolygonRegion`,
:class:`_DiscRegion`, :class:`_StripRegion`): the search window,
``classify(ids, entries)`` — one pass over the candidates' cache entries
that decides each one, by a sound screen where the kind has one, and
returns the ``(may, must)`` id sets — and the classification of a
stationary point.
Position queries skip the region steps and read the cached interval.

Every :class:`~repro.dbms.database.MovingObjectDatabase` owns one core.
A single query (``position_of``, ``range_query``, ``within_distance``,
``within_distance_of_object``) is :meth:`QueryCore.one` — a batch of
one, whose candidates come from ``index.candidates_at`` (one plain
R-tree search) — and :class:`~repro.dbms.batch.BatchQueryEngine` is
:meth:`QueryCore.answer` over many queries, whose candidates come from
one shared traversal (``index.candidates_at_many``).

**The cache.**  A candidate's interval, materialised geometry and
geometry bbox are derived once per ``(object, t)`` and kept in
``t -> {object_id -> entry}`` buckets; deviation bounds are kept per
object.  Entries are tagged with the position attribute they were
derived from (a frozen object replaced by every installed update and
unique to its record, compared with ``is``), so a stale interval can
never be served.  What bounds the cache is live state: the database
drops an object's entries when it installs an update for it or removes
it (:meth:`QueryCore.forget`), and drops every bucket for a time the
clock has passed (:meth:`QueryCore.evict_before` — such a time can no
longer be asked about).  A caller's ``limit`` caps what is left; on
overflow the cache is cleared wholesale (correct, merely cold).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence, Union

from repro.core.bounds import bounds_for_policy
from repro.core.uncertainty import uncertainty_interval
from repro.dbms.query import (
    Containment,
    PositionAnswer,
    RangeAnswer,
    classify_polyline_against_polygon,
    classify_polyline_within_distance,
    distance_range_between_polylines,
    distance_range_to_polyline,
)
from repro.errors import QueryError, SpecReader
from repro.geometry.bbox import Rect2D
from repro.geometry.kernels import ROUNDING
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.index.rtree import SearchStats
from repro.obs.probe import probe

#: Cache entries kept when the caller names no bound of its own.
_DEFAULT_LIMIT = 1 << 18

_OUT, _MAY, _MUST = Containment.OUT, Containment.MAY, Containment.MUST


def _reject_nan(value: float, what: str) -> None:
    if value != value:
        raise QueryError(f"{what} must be a number, got NaN")


def _check_radius(radius: float) -> None:
    _reject_nan(radius, "radius")
    if radius < 0:
        raise QueryError(f"radius must be nonnegative, got {radius}")


def check_point(point: Point, what: str) -> None:
    """Reject a NaN coordinate (no distance to it is ordered) or an
    infinite one (ray casting crosses an infinite edge at NaN)."""
    for value in (point.x, point.y):
        _reject_nan(value, what)
        if value in (math.inf, -math.inf):
            raise QueryError(f"{what} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class PositionQuery:
    """"What is the current position of ``object_id``?" at ``time``."""

    #: The flight recorder's (and the metrics') name of the query kind.
    kind: ClassVar[str] = "position"
    object_id: str
    time: float

    def fields(self) -> dict[str, Any]:
        """What the flight recorder stores to re-issue this query."""
        return {"object_id": self.object_id}


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """"Retrieve the objects currently in ``polygon``" at ``time``."""

    kind: ClassVar[str] = "range"
    polygon: Polygon
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None

    def fields(self) -> dict[str, Any]:
        return {"polygon": [[v.x, v.y] for v in self.polygon.vertices],
                "where": self.where, "class_name": self.class_name}


@dataclass(frozen=True, slots=True)
class WithinDistanceQuery:
    """"Retrieve the objects within ``radius`` of ``center``" at ``time``."""

    kind: ClassVar[str] = "within"
    center: Point
    radius: float
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None

    def fields(self) -> dict[str, Any]:
        return {"center": [self.center.x, self.center.y],
                "radius": self.radius,
                "where": self.where, "class_name": self.class_name}


@dataclass(frozen=True, slots=True)
class ProximityQuery:
    """"Retrieve the objects within ``radius`` of object ``object_id``"."""

    kind: ClassVar[str] = "proximity"
    object_id: str
    radius: float
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None

    def fields(self) -> dict[str, Any]:
        return {"object_id": self.object_id, "radius": self.radius,
                "where": self.where, "class_name": self.class_name}


Query = Union[PositionQuery, RangeQuery, WithinDistanceQuery, ProximityQuery]
Answer = Union[PositionAnswer, RangeAnswer]


def query_from_spec(kind: Any, time: Any, object_id: Any,
                    data: dict[str, Any]) -> Query:
    """The inverse of ``Query.fields()``: a recorded query as a value.

    ``time`` and ``object_id`` are the event-level fields a recorded
    query keeps beside its ``data``.  Bad input is a :class:`QueryError`
    naming the field.
    """
    fields = SpecReader({**data, "time": time, "object_id": object_id},
                        QueryError, f"{kind} query")
    t = fields.number("time")
    filters = (fields.get("where", dict, None),
               fields.get("class_name", str, None))
    if kind == "position":
        return PositionQuery(fields.get("object_id", str), t)
    if kind == "range":
        return RangeQuery(Polygon.from_coordinates(fields.pairs("polygon")),
                          t, *filters)
    if kind == "within":
        return WithinDistanceQuery(Point(*fields.pair("center")),
                                   fields.number("radius"), t, *filters)
    if kind == "proximity":
        return ProximityQuery(fields.get("object_id", str),
                              fields.number("radius"), t, *filters)
    raise QueryError(f"unknown query kind {kind!r}")


def nearest_from_spec(time: Any, data: dict[str, Any]) -> tuple:
    """A recorded ``nearest`` query — the one kind the batch engine does
    not answer, so without a query value — as the arguments of
    :meth:`~repro.dbms.database.MovingObjectDatabase.nearest`."""
    fields = SpecReader({**data, "time": time}, QueryError, "nearest query")
    return (Point(*fields.pair("center")), fields.get("k", int),
            fields.number("time"), fields.get("where", dict, None),
            fields.get("class_name", str, None))


# ----------------------------------------------------------------------
# Regions: what a range-like query kind contributes to the skeleton
# ----------------------------------------------------------------------

def _exact_rect(polygon: Polygon) -> Rect2D | None:
    """``polygon``'s region as a :class:`Rect2D`, if it is exactly one.

    A 4-gon whose vertex set is the corner set of its bounding rectangle
    and whose every edge is axis-parallel *is* that rectangle: each
    corner's two ring neighbours are the two corners sharing an x or a
    y with it.  (The same corners in bow-tie order are not.)  Returns
    ``None`` for every other shape, in which case no rectangle shortcut
    applies.
    """
    vertices = polygon.vertices
    if len(vertices) != 4:
        return None
    rect = polygon.bounding_rect
    corners = {
        (rect.min_x, rect.min_y), (rect.max_x, rect.min_y),
        (rect.max_x, rect.max_y), (rect.min_x, rect.max_y),
    }
    if {(v.x, v.y) for v in vertices} != corners:
        return None
    if not all(map(math.isfinite,
                   (rect.min_x, rect.min_y, rect.max_x, rect.max_y))):
        return None
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        if a.x != b.x and a.y != b.y:
            return None
    return rect


def _settle(outcome: str, object_id: str, may: set, must: set) -> None:
    """Add ``object_id`` to the sets its exact ``outcome`` puts it in."""
    if outcome != _OUT:
        may.add(object_id)
        if outcome == _MUST:
            must.add(object_id)


class _PolygonRegion:
    """§4's polygon ``G``, with the pre-tests of a range query.

    The pre-tests decide an outcome only when the exact predicate is
    guaranteed to agree (proofs: DESIGN.md, "Screens").  A bbox missing
    the window is OUT.  When the polygon is exactly a rectangle, call a
    point *held* when ``min_x <= x < max_x`` and ``min_y <= y < max_y``:
    ``ring_contains_point`` holds it inside by ray casting alone, with
    no help from its ``EPSILON`` edge test (which rounding defeats at
    large coordinates).  A geometry whose bbox is held lies in the
    rectangle in its entirety (MUST); one the closed rectangle does not
    hold whole but with a held vertex touches it without lying in it
    (MAY, the vertex screen).  Everything else goes to the exact
    classifier.
    """

    __slots__ = ("polygon", "window", "rect")

    def __init__(self, core: "QueryCore", query: RangeQuery,
                 limit: int) -> None:
        self.polygon = query.polygon
        self.window = query.polygon.bounding_rect
        self.rect = _exact_rect(query.polygon)

    def classify(self, ids: Sequence[str],
                 entries: list[tuple]) -> tuple[set[str], set[str]]:
        polygon, window, rect = self.polygon, self.window, self.rect
        # For an exact rectangle the window *is* the rectangle.
        min_x, min_y, max_x, max_y = (window.min_x, window.min_y,
                                      window.max_x, window.max_y)
        may: set[str] = set()
        must: set[str] = set()
        for object_id, entry in zip(ids, entries):
            bbox = entry[3]
            if (bbox.max_x < min_x or max_x < bbox.min_x
                    or bbox.max_y < min_y or max_y < bbox.min_y):
                continue
            geometry = entry[2]
            outcome = None
            if rect is not None:
                if (min_x <= bbox.min_x and bbox.max_x <= max_x
                        and min_y <= bbox.min_y and bbox.max_y <= max_y):
                    if bbox.max_x < max_x and bbox.max_y < max_y:
                        outcome = _MUST
                else:
                    for x, y in zip(geometry.xs, geometry.ys):
                        if min_x <= x < max_x and min_y <= y < max_y:
                            outcome = _MAY
                            break
            _settle(classify_polyline_against_polygon(geometry, polygon)
                    if outcome is None else outcome, object_id, may, must)
        return may, must

    def classify_point(self, point: Point) -> str:
        return _MUST if self.polygon.contains_point(point) else _OUT


class _DiscRegion:
    """The disc of a within-distance query.

    Three screens come before the exact classifier, each deciding only
    what it would (DESIGN.md, "Screens").  A bbox whose nearest point
    lies beyond ``radius`` is OUT, one whose farthest point lies within
    it MUST.  Then the vertex screen: a vertex within ``radius`` less a
    slack for ``distance_to_point``'s rounding and ``EPSILON`` makes the
    chain MAY, and MUST when no vertex lies beyond ``radius``.
    """

    __slots__ = ("center", "radius", "window")

    def __init__(self, core: "QueryCore", query: WithinDistanceQuery,
                 limit: int) -> None:
        center, radius = query.center, query.radius
        self.center = center
        self.radius = radius
        self.window = Rect2D(center.x - radius, center.y - radius,
                             center.x + radius, center.y + radius)

    def classify(self, ids: Sequence[str],
                 entries: list[tuple]) -> tuple[set[str], set[str]]:
        center, radius = self.center, self.radius
        cx, cy = center.x, center.y
        hypot = math.hypot
        may: set[str] = set()
        must: set[str] = set()
        for object_id, entry in zip(ids, entries):
            bbox = entry[3]
            low_x, low_y, high_x, high_y = (bbox.min_x, bbox.min_y,
                                            bbox.max_x, bbox.max_y)
            # The legs to the bbox's nearest and farthest points: max()'s
            # values (up to the sign of a zero), without its calls.
            near_x = (low_x - cx if low_x > cx
                      else cx - high_x if cx > high_x else 0.0)
            near_y = (low_y - cy if low_y > cy
                      else cy - high_y if cy > high_y else 0.0)
            if hypot(near_x, near_y) > radius:
                continue
            far_x = cx - low_x if cx - low_x >= high_x - cx else high_x - cx
            far_y = cy - low_y if cy - low_y >= high_y - cy else high_y - cy
            if hypot(far_x, far_y) <= radius:
                outcome = _MUST
            else:
                # A vertex within ``inner`` proves that the kernel finds a
                # segment within ``radius``; its must test reads vertices.
                inner = radius - 2.0 * (EPSILON + ROUNDING * (radius + max(
                    abs(cx), abs(cy), high_x, -low_x, high_y, -low_y)))
                geometry = entry[2]
                within = beyond = False
                for x, y in zip(geometry.xs, geometry.ys):
                    distance = hypot(x - cx, y - cy)
                    if distance > radius:
                        beyond = True
                    elif distance <= inner:
                        within = True
                    else:
                        continue
                    if within and beyond:
                        break
                outcome = ((_MAY if beyond else _MUST) if within else
                           classify_polyline_within_distance(
                               center, radius, geometry))
            _settle(outcome, object_id, may, must)
        return may, must

    def classify_point(self, point: Point) -> str:
        return _MUST if point.distance_to(self.center) <= self.radius \
            else _OUT


class _StripRegion:
    """Everything within ``radius`` of the anchor's uncertainty interval.

    Both sides are uncertain, so an object *may* qualify when the
    closest consistent placement of the pair is within ``radius`` and
    *must* when even the farthest is.  The window is the anchor's
    interval bbox grown by the radius (anything farther cannot even
    *may* qualify).  There is no bbox pre-test: the exact pair distance
    goes through projected points, which a bbox bound brackets only up
    to rounding, and a screen must never disagree with the predicate.
    """

    __slots__ = ("anchor", "radius", "window")

    def __init__(self, core: "QueryCore", query: ProximityQuery,
                 limit: int) -> None:
        _, _, self.anchor, bbox = core.entries_for(
            (query.object_id,), query.time, limit)[0]
        self.radius = query.radius
        self.window = bbox.expanded(query.radius)

    def _outcome(self, minimum: float, maximum: float) -> str:
        if minimum > self.radius:
            return _OUT
        return _MUST if maximum <= self.radius else _MAY

    def classify(self, ids: Sequence[str],
                 entries: list[tuple]) -> tuple[set[str], set[str]]:
        may: set[str] = set()
        must: set[str] = set()
        for object_id, entry in zip(ids, entries):
            _settle(self._outcome(*distance_range_between_polylines(
                self.anchor, entry[2])), object_id, may, must)
        return may, must

    def classify_point(self, point: Point) -> str:
        return self._outcome(*distance_range_to_polyline(point, self.anchor))


_REGIONS = {RangeQuery: _PolygonRegion, WithinDistanceQuery: _DiscRegion,
            ProximityQuery: _StripRegion}


# ----------------------------------------------------------------------
# The core
# ----------------------------------------------------------------------

class QueryCore:
    """The refine skeleton and derived-value cache of one database.

    A region's pre-tests only ever decide what the exact classifier
    would (DESIGN.md, "Screens").
    """

    def __init__(self, database: Any) -> None:
        self._db = database
        #: ``t -> {object_id -> (attribute, interval, geometry, bbox)}``.
        self._derived: dict[float, dict[str, tuple]] = {}
        #: Min-heap of ``_derived``'s keys (clock-advance eviction).
        self._times: list[float] = []
        self._size = 0
        #: ``object_id -> (attribute, DeviationBounds)``.
        self._bounds: dict[str, tuple] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Derived-value cache
    # ------------------------------------------------------------------

    def size(self) -> int:
        """``(object, t)`` entries currently held."""
        return self._size

    def clear(self) -> None:
        self._derived.clear()
        self._times.clear()
        self._size = 0

    def forget(self, object_id: str) -> None:
        """Drop everything derived from ``object_id``'s old record."""
        self._bounds.pop(object_id, None)
        for bucket in self._derived.values():
            if bucket.pop(object_id, None) is not None:
                self._size -= 1

    def evict_before(self, t: float) -> None:
        """Drop every bucket for a time earlier than ``t``."""
        times = self._times
        while times and times[0] < t:
            self._size -= len(self._derived.pop(heapq.heappop(times)))

    def _bucket(self, t: float) -> dict[str, tuple]:
        bucket = self._derived.get(t)
        if bucket is None:
            bucket = self._derived[t] = {}
            heapq.heappush(self._times, t)
        return bucket

    def bounds_for(self, record) -> Any:
        """The record's deviation bounds, cached per installed update."""
        entry = self._bounds.get(record.object_id)
        if entry is not None and entry[0] is record.attribute:
            return entry[1]
        bounds = bounds_for_policy(
            record.policy, record.attribute.speed, record.max_speed
        )
        self._bounds[record.object_id] = (record.attribute, bounds)
        return bounds

    def entries_for(self, object_ids: Sequence[str], t: float,
                    limit: int = _DEFAULT_LIMIT) -> list[tuple]:
        """``(attribute, interval, geometry, bbox)`` per id, in order.

        Counts exactly one hit or miss per id.  A miss is computed
        through the exact functions a cache-free refinement uses
        (:func:`uncertainty_interval`, ``interval.geometry``), so a hit
        returns bit-for-bit the values a fresh computation would.
        """
        if not object_ids:
            return []
        records = self._db._records
        get_route = self._db.routes.get
        bucket = self._bucket(t)
        entries: list[tuple] = []
        misses = 0
        for object_id in object_ids:
            entry = bucket.get(object_id)
            if entry is None or entry[0] is not records[object_id].attribute:
                record = records[object_id]
                misses += 1
                route = get_route(record.attribute.route_id)
                interval = uncertainty_interval(
                    record.attribute, route, self.bounds_for(record), t,
                    record.start_travel(route),
                )
                geometry = interval.geometry(route)
                entry = (record.attribute, interval, geometry,
                         geometry.bounding_rect())
                if self._size >= limit:
                    self.clear()
                    bucket = self._bucket(t)
                self._size += object_id not in bucket
                bucket[object_id] = entry
            entries.append(entry)
        self.misses += misses
        self.hits += len(entries) - misses
        return entries

    # ------------------------------------------------------------------
    # The skeleton
    # ------------------------------------------------------------------

    def check_time(self, t: float) -> None:
        """Queries address the current or a future time (§4.2)."""
        _reject_nan(t, "query time")
        clock = self._db.clock_time
        if t < clock - 1e-9:
            raise QueryError(
                f"query time {t} is in the past (database clock is "
                f"{clock}); position attributes are not versioned"
            )

    def validate(self, queries: Sequence[Query]) -> None:
        """Raise :class:`QueryError` at the first unanswerable query.

        Runs up front, in query order, so a batch produces no answers
        on error and a single query raises exactly what it would raise
        as part of a batch.
        """
        db = self._db
        for query in queries:
            self.check_time(query.time)
            if isinstance(query, PositionQuery):
                db.record(query.object_id)
                continue
            db._check_index_coverage(query.time)
            if isinstance(query, RangeQuery):
                if not isinstance(query.polygon, Polygon):
                    raise QueryError(
                        f"range query needs a Polygon, got "
                        f"{type(query.polygon).__name__}")
                for vertex in query.polygon.vertices:
                    check_point(vertex, "polygon vertex")
                continue
            _check_radius(query.radius)
            if isinstance(query, ProximityQuery):
                db.record(query.object_id)
            else:
                check_point(query.center, "center")

    def region_of(self, query: Query, limit: int = _DEFAULT_LIMIT) -> Any:
        """The region of a validated range-like query."""
        return _REGIONS[type(query)](self, query, limit)

    def one(self, query: Query, stats: SearchStats | None = None) -> Answer:
        """A single query: a validated, recorded batch of one."""
        queries = (query,)
        self.validate(queries)
        answer = self.answer(self._db._index, queries, stats)[0]
        p = probe()
        if p.enabled:
            p.queries(queries, (answer,))
        return answer

    def answer(self, index: Any, queries: Sequence[Query],
               stats: SearchStats | None = None,
               limit: int = _DEFAULT_LIMIT) -> list[Answer]:
        """Answers refined from ``index``'s candidates, unvalidated.

        ``stats`` aggregates index work over all ``queries``.
        """
        regions = [
            None if isinstance(query, PositionQuery)
            else self.region_of(query, limit)
            for query in queries
        ]
        found = self._gather(index, queries, regions, stats)
        eligible = _EligibilitySets(self._db)
        p = probe()
        counters = ({outcome: p.instrument("dbms_classified_total",
                                           outcome=outcome)
                     for outcome in (_OUT, _MAY, _MUST)}
                    if p.enabled else None)
        return [
            self._position(query, limit) if region is None
            else self._refine(query, region, candidates, eligible,
                              counters, limit)
            for query, region, candidates in zip(queries, regions, found)
        ]

    def _gather(self, index: Any, queries: Sequence[Query],
                regions: list, stats: SearchStats | None) -> list:
        """Pre-refinement candidate sets, one slot per query.

        Position queries get ``None``.  A lone window is one plain
        index search; several share one traversal (the index's
        multi-search); with no index every record is a candidate.  A
        sharded database counts each window's fan-out.
        """
        slots = [i for i, region in enumerate(regions) if region is not None]
        found: list[set[str] | None] = [None] * len(queries)
        if index is None:
            records = self._db._records
            for slot in slots:
                if stats is not None:
                    stats.nodes_visited += 1
                    stats.entries_tested += len(records)
                found[slot] = set(records)
        elif len(slots) == 1:
            slot = slots[0]
            found[slot] = index.candidates_at(
                regions[slot].window, queries[slot].time, stats)
        elif slots:
            windows = [(regions[slot].window, queries[slot].time)
                       for slot in slots]
            for slot, ids in zip(slots,
                                 index.candidates_at_many(windows, stats)):
                found[slot] = ids
        if slots and self._db.partitioning is not None:
            self._observe_fanout([found[slot] for slot in slots])
        return found

    def _observe_fanout(self, candidate_sets: list) -> None:
        """Count each searched window's fan-out: the distinct owners
        among its candidates, the shards a per-shard search would ask."""
        owner = self._db._owner
        p = probe()
        if p.enabled:
            for ids in candidate_sets:
                p.observe("shard_query_fanout",
                          float(len({owner[i] for i in ids})))
                p.count("shard_queries_total")

    def _position(self, query: PositionQuery, limit: int) -> PositionAnswer:
        """"What is the current position of m?" with error bounds (§3.3)."""
        db = self._db
        t = query.time
        record = db._records[query.object_id]
        route = db.routes.get(record.attribute.route_id)
        elapsed = record.attribute.elapsed(t)
        bounds = self.bounds_for(record)
        interval = self.entries_for((query.object_id,), t, limit)[0][1]
        return PositionAnswer(
            object_id=query.object_id,
            time=t,
            position=record.database_position(route, t),
            slow_bound=bounds.slow(elapsed),
            fast_bound=bounds.fast(elapsed),
            error_bound=bounds.total(elapsed),
            interval=interval,
        )

    def _refine(self, query: Query, region: Any, candidates: set[str],
                eligible: "_EligibilitySets", counters: dict | None,
                limit: int) -> RangeAnswer:
        """Candidates to exact may/must sets through ``region``."""
        kept = eligible.filter_mobile(candidates, query.where,
                                      query.class_name)
        if isinstance(query, ProximityQuery) and query.object_id in kept:
            # The anchor is not its own neighbour.
            kept = kept - {query.object_id}
        ids = list(kept)
        may, must = region.classify(
            ids, self.entries_for(ids, query.time, limit))
        if counters is not None:
            counters[_OUT].inc(len(ids) - len(may))
            counters[_MAY].inc(len(may) - len(must))
            counters[_MUST].inc(len(must))
        stationary = eligible.stationary(query.where, query.class_name)
        positions = self._db._stationary
        for object_id in stationary:
            _settle(region.classify_point(positions[object_id][1]),
                    object_id, may, must)
        return RangeAnswer(
            time=query.time,
            may=frozenset(may),
            must=frozenset(must),
            examined=len(kept) + len(stationary),
            candidates=frozenset(kept),
        )


class _EligibilitySets:
    """Per-call hoisting of filter work.

    The ids passing a ``(where, class_name)`` filter are computed once
    per distinct filter over the whole mobile (or stationary)
    population, instead of per query over each candidate set;
    membership is :meth:`MovingObjectDatabase._filter_candidates`'s
    (candidate sets only ever contain known ids).
    """

    def __init__(self, database: Any) -> None:
        self._db = database
        self._passing: dict = {}

    def filter_mobile(self, candidates: set[str],
                      where: dict[str, Any] | None,
                      class_name: str | None) -> set[str]:
        if where is None and class_name is None:
            return candidates
        return candidates & self._pass(True, where, class_name)

    def stationary(self, where: dict[str, Any] | None,
                   class_name: str | None) -> frozenset[str]:
        if where is None and class_name is None:
            return self._db.stationary_id_set()
        return self._pass(False, where, class_name)

    def _pass(self, mobile: bool, where: dict[str, Any] | None,
              class_name: str | None) -> frozenset[str]:
        db = self._db
        try:
            key = (mobile, class_name,
                   None if where is None else tuple(sorted(where.items())))
            passing = self._passing.get(key)
        except TypeError:
            # Unorderable or unhashable filter values: not memoised.
            key = passing = None
        if passing is None:
            passing = frozenset(db._filter_candidates(
                db._records if mobile else db.stationary_id_set(),
                where, class_name,
            ))
            if key is not None:
                self._passing[key] = passing
        return passing


__all__ = [
    "Answer",
    "PositionQuery",
    "ProximityQuery",
    "Query",
    "QueryCore",
    "RangeQuery",
    "WithinDistanceQuery",
    "check_point",
    "nearest_from_spec",
    "query_from_spec",
]
