"""Batched query processing — the read-path fast lane.

The one-at-a-time query processor re-walks the R-tree for each call
and, for each candidate of each query, re-derives the deviation bounds,
the uncertainty interval and its geometry (only the start point's
route projection is shared: the record memoises it per installed
update).  A serving workload ("the free cabs near each of these 1 000
passengers, now") repeats almost all of that work: query boxes overlap
the same index nodes and candidates recur across queries at the same
instant.

:class:`BatchQueryEngine` answers a workload of position / range /
within-distance queries with amortised work:

* **R-tree multi-search** — all query windows are answered by a single
  shared tree traversal (:meth:`repro.index.rtree.RTree.search_many`
  via :meth:`repro.index.timespace.TimeSpaceIndex.candidates_at_many`),
* **per-update uncertainty cache** — each candidate's interval,
  materialised geometry, and geometry bbox are derived once per
  ``(object, t)`` and reused until that object's record changes (every
  cache entry is tagged with the record's installed
  ``PositionAttribute`` object and is valid only while the record still
  holds *that object*, so a position update invalidates exactly one
  object, never the whole cache, and a removed and re-inserted id can
  never be served its predecessor's entry),
* **hoisted filter sets** — the stationary-object id set and each
  distinct ``(where, class_name)`` eligibility set are computed once
  per batch instead of once per query.

Answers are **byte-identical** to issuing the same queries one at a
time through :class:`~repro.dbms.database.MovingObjectDatabase`: every
number flows through the same functions on the same inputs, and the
only shortcuts taken (bbox pre-tests before exact classification) are
sound — they decide an outcome only when the exact predicate is
guaranteed to agree.  ``tests/dbms/test_batch.py`` and
``benchmarks/bench_query_batch.py`` assert this equivalence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Union

from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.bounds import bounds_for_policy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.dbms.database import MovingObjectDatabase, _classification_counters
from repro.dbms.query import (
    Containment,
    PositionAnswer,
    RangeAnswer,
    classify_polyline_against_polygon,
    classify_polyline_within_distance,
)
from repro.errors import QueryError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.rtree import SearchStats
from repro.obs.instrument import time_section
from repro.obs.live.windows import get_live
from repro.obs.registry import get_registry
from repro.trace.events import CACHE, answer_digest
from repro.trace.recorder import get_recorder
from repro.vec import vectorization_default

# numpy is first imported here when `import repro` runs, and stays after
# the imports above on purpose: loading it ahead of them shifts the heap
# under the query path and costs serve_mixed 3 % (measured, 9 of 10
# interleaved pairs, PR 13).
import numpy as np

from repro.vec import bounds as vec_bounds
from repro.vec import geom as vec_geom

#: Below this many candidates (or cache misses) the per-call NumPy
#: overhead outweighs the loop it replaces; the scalar path runs.
_MIN_VEC_CANDIDATES = 8


@dataclass(frozen=True, slots=True)
class PositionQuery:
    """"What is the current position of ``object_id``?" at ``time``."""

    object_id: str
    time: float


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """"Retrieve the objects currently in ``polygon``" at ``time``."""

    polygon: Polygon
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None


@dataclass(frozen=True, slots=True)
class WithinDistanceQuery:
    """"Retrieve the objects within ``radius`` of ``center``" at ``time``."""

    center: Point
    radius: float
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None


BatchQuery = Union[PositionQuery, RangeQuery, WithinDistanceQuery]
BatchAnswer = Union[PositionAnswer, RangeAnswer]

#: No-filter sentinel for the hoisted eligibility sets.
_NO_FILTER = None


def _exact_rect(polygon: Polygon) -> Rect2D | None:
    """``polygon``'s region as a :class:`Rect2D`, if it is exactly one.

    A simple 4-gon whose vertex set is the corner set of its bounding
    rectangle *is* that rectangle (any simple ordering of four corner
    points traces the same closed region).  Returns ``None`` for every
    other shape, in which case no rectangle shortcut applies.
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
    return rect


def query_window(query: "RangeQuery | WithinDistanceQuery") -> Rect2D:
    """The rectangle a range or within-distance query searches with."""
    if isinstance(query, RangeQuery):
        return query.polygon.bounding_rect
    center, radius = query.center, query.radius
    return Rect2D(
        center.x - radius, center.y - radius,
        center.x + radius, center.y + radius,
    )


def _rect_min_distance(center: Point, rect: Rect2D) -> float:
    """Distance from ``center`` to the closest point of ``rect``."""
    dx = max(rect.min_x - center.x, 0.0, center.x - rect.max_x)
    dy = max(rect.min_y - center.y, 0.0, center.y - rect.max_y)
    return math.hypot(dx, dy)


def _rect_max_distance(center: Point, rect: Rect2D) -> float:
    """Distance from ``center`` to the farthest point of ``rect``."""
    dx = max(center.x - rect.min_x, rect.max_x - center.x)
    dy = max(center.y - rect.min_y, rect.max_y - center.y)
    return math.hypot(dx, dy)


class BatchQueryEngine:
    """Amortised query processing over a :class:`MovingObjectDatabase`.

    The engine is a read-side companion to the database: it owns no
    data, only caches of values derived from records.  Cache entries
    are tagged with the position attribute they were derived from (a
    frozen object, replaced by every installed update and unique to its
    record; compared with ``is``), so they survive across :meth:`run`
    calls and invalidate per object the moment a position update lands
    or the id is re-inserted — a stale interval can never be served.

    ``max_cache_entries`` bounds the derived-value cache; on overflow
    the cache is cleared wholesale (correct, merely cold).

    ``vectorize`` routes cache-miss interval derivation and the bbox
    pre-tests through the NumPy kernels of :mod:`repro.vec` when
    enough candidates are in play; ``None`` defers to the
    ``REPRO_VECTORIZE`` environment default.  Answers and cache
    hit/miss counts are identical either way — the kernels evaluate
    the same float expressions, and records the kernels cannot
    reproduce exactly (unknown policy families, invalid parameters)
    fall back to the scalar functions per record.

    ``jobs > 1`` answers a batch over a partitioned index
    (:class:`~repro.shard.sharded.PartitionedIndex`) one partition per
    fork-pool worker whenever the batch reaches more than one
    partition; answers are identical for every ``jobs`` value.
    """

    def __init__(self, database: MovingObjectDatabase,
                 max_cache_entries: int = 1 << 18,
                 vectorize: bool | None = None, jobs: int = 1) -> None:
        if max_cache_entries < 1:
            raise QueryError(
                f"max_cache_entries must be positive, got {max_cache_entries}"
            )
        if jobs < 1:
            raise QueryError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if vectorize is None:
            vectorize = vectorization_default()
        self.vectorize = bool(vectorize)
        self._db = database
        self._max_cache_entries = max_cache_entries
        #: ``(object_id, t) -> (attribute, interval, geometry, bbox)``.
        self._derived: dict[tuple[str, float], tuple] = {}
        #: ``object_id -> (attribute, DeviationBounds)``.
        self._bounds: dict[str, tuple] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def database(self) -> MovingObjectDatabase:
        return self._db

    def cache_size(self) -> int:
        """Entries currently held by the derived-value cache."""
        return len(self._derived)

    def hit_rate(self) -> float:
        """Lifetime uncertainty-cache hit rate (0.0 when never used)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Derived-value caches
    # ------------------------------------------------------------------

    def _bounds_for(self, record) -> Any:
        """The record's deviation bounds, cached per installed update."""
        entry = self._bounds.get(record.object_id)
        if entry is not None and entry[0] is record.attribute:
            return entry[1]
        bounds = bounds_for_policy(
            record.policy, record.attribute.speed, record.max_speed
        )
        self._bounds[record.object_id] = (record.attribute, bounds)
        return bounds

    def _derived_for(self, object_id: str, t: float) -> tuple:
        """``(attribute, interval, geometry, bbox)`` for one candidate.

        Computed through the exact functions the sequential path uses
        (:func:`uncertainty_interval`, ``interval.geometry``), so a hit
        returns bit-for-bit the values a fresh computation would.
        """
        record = self._db._records[object_id]
        key = (object_id, t)
        entry = self._derived.get(key)
        if entry is not None and entry[0] is record.attribute:
            self.cache_hits += 1
            return entry
        self.cache_misses += 1
        entry = self._compute_derived(record, t)
        self._store_derived(key, entry)
        return entry

    def _compute_derived(self, record, t: float) -> tuple:
        """One candidate's cache entry, through the scalar functions."""
        route = self._db.routes.get(record.attribute.route_id)
        interval = uncertainty_interval(
            record.attribute, route, self._bounds_for(record), t,
            record.start_travel(route),
        )
        geometry = interval.geometry(route)
        return (record.attribute, interval, geometry,
                geometry.bounding_rect())

    def _store_derived(self, key: tuple[str, float], entry: tuple) -> None:
        if len(self._derived) >= self._max_cache_entries:
            self._derived.clear()
        self._derived[key] = entry

    def _entries_for(self, object_ids: list[str], t: float) -> list[tuple]:
        """Cache entries for all candidates of one query, in id order.

        Counts exactly one hit or miss per candidate, like the
        per-candidate :meth:`_derived_for` calls it replaces.  When
        vectorization is on and enough candidates miss, the missing
        intervals are derived through the array kernels in one pass.
        """
        records = self._db._records
        entries: list[tuple] = [()] * len(object_ids)
        miss_rows: list[int] = []
        for i, object_id in enumerate(object_ids):
            record = records[object_id]
            entry = self._derived.get((object_id, t))
            if entry is not None and entry[0] is record.attribute:
                self.cache_hits += 1
                entries[i] = entry
            else:
                self.cache_misses += 1
                miss_rows.append(i)
        if not miss_rows:
            return entries
        missing = [records[object_ids[i]] for i in miss_rows]
        if self.vectorize and len(miss_rows) >= _MIN_VEC_CANDIDATES:
            derived = self._derive_bulk(missing, t)
        else:
            derived = [self._compute_derived(record, t)
                       for record in missing]
        for i, entry in zip(miss_rows, derived):
            self._store_derived((object_ids[i], t), entry)
            entries[i] = entry
        return entries

    def _derive_bulk(self, records: list, t: float) -> list[tuple]:
        """Derive cache entries for ``records`` via the array kernels.

        Records are grouped by bound family — Propositions 2-3 for dl,
        Proposition 4 for the immediate-linear/adaptive policies — and
        each group's intervals are evaluated in one vectorized pass.
        Records of other policy families, and records the kernels must
        not touch (query before last update, negative parameters —
        the scalar constructors own those errors), go through
        :meth:`_compute_derived` unchanged.
        """
        from repro.core.adaptive import AdaptivePolicy

        rows_dl: list[int] = []
        rows_imm: list[int] = []
        rows_scalar: list[int] = []
        for i, record in enumerate(records):
            attribute = record.attribute
            policy = record.policy
            if (self._db.routes.get(attribute.route_id) is None
                    or t < attribute.starttime or attribute.speed < 0
                    or record.max_speed < 0):
                rows_scalar.append(i)
            elif isinstance(policy, DelayedLinearPolicy):
                target = rows_dl if policy.update_cost >= 0 else rows_scalar
                target.append(i)
            elif isinstance(policy, (AverageImmediateLinearPolicy,
                                     CurrentImmediateLinearPolicy,
                                     AdaptivePolicy)) and not isinstance(
                    policy, (FixedThresholdPolicy, TraditionalPointPolicy,
                             PeriodicPolicy)):
                target = rows_imm if policy.update_cost >= 0 else rows_scalar
                target.append(i)
            else:
                rows_scalar.append(i)
        entries: list[tuple] = [()] * len(records)
        if rows_dl:
            self._derive_family(records, rows_dl, t, True, entries)
        if rows_imm:
            self._derive_family(records, rows_imm, t, False, entries)
        for i in rows_scalar:
            entries[i] = self._compute_derived(records[i], t)
        return entries

    def _derive_family(self, records: list, rows: list[int], t: float,
                       delayed: bool, entries: list[tuple]) -> None:
        """Vectorized interval derivation for one bound family.

        The array expressions mirror :func:`uncertainty_interval` and
        the :mod:`repro.core.bounds` closures element for element (see
        :mod:`repro.vec.bounds`); the per-record pieces that stay
        scalar — the start point's travel distance (the record's memo)
        and interval geometry — are the exact calls the scalar path makes.
        """
        n = len(rows)
        speed = np.empty(n, dtype=np.float64)
        max_speed = np.empty(n, dtype=np.float64)
        cost = np.empty(n, dtype=np.float64)
        starttime = np.empty(n, dtype=np.float64)
        start_travel = np.empty(n, dtype=np.float64)
        length = np.empty(n, dtype=np.float64)
        routes = []
        get_route = self._db.routes.get
        for j, i in enumerate(rows):
            record = records[i]
            attribute = record.attribute
            route = get_route(attribute.route_id)
            routes.append(route)
            speed[j] = attribute.speed
            max_speed[j] = record.max_speed
            cost[j] = record.policy.update_cost
            starttime[j] = attribute.starttime
            start_travel[j] = record.start_travel(route)
            length[j] = route.length
        elapsed = t - starttime
        gap = vec_bounds.speed_gap(speed, max_speed)
        if delayed:
            slow, fast = vec_bounds.delayed_slow_fast(
                speed, gap, cost, elapsed
            )
        else:
            slow, fast = vec_bounds.immediate_slow_fast(
                speed, gap, cost, elapsed
            )
        center = start_travel + speed * elapsed
        lower, upper = vec_bounds.clamp_travel(
            center - slow, center + fast, length
        )
        for j, i in enumerate(rows):
            record = records[i]
            route = routes[j]
            interval = UncertaintyInterval(
                route_id=route.route_id,
                direction=record.attribute.direction,
                lower=float(lower[j]),
                upper=float(upper[j]),
            )
            geometry = interval.geometry(route)
            entries[i] = (record.attribute, interval, geometry,
                          geometry.bounding_rect())

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run(self, queries: list[BatchQuery],
            stats: SearchStats | None = None) -> list[BatchAnswer]:
        """Answer ``queries`` in order, with work amortised across them.

        Validation (query-time monotonicity, horizon coverage, radius
        sign, known object ids) runs up front in query order and raises
        the same :class:`QueryError` the sequential path would raise at
        the first offending query; no answers are produced on error.
        ``stats`` aggregates index work over the whole batch.
        """
        hits_before = self.cache_hits
        misses_before = self.cache_misses
        live = get_live()
        started = time.perf_counter() if live.enabled else 0.0
        with time_section("dbms_batch_seconds",
                          help="Wall-clock latency of one query batch."):
            self._validate(queries)
            answers = None
            if self.jobs > 1:
                from repro.shard.parallel import answer_in_pool

                answers = answer_in_pool(self, queries, stats)
            if answers is None:
                answers = self.answer_over(self._db._index, queries, stats)
        if live.enabled:
            live.observe("dbms_batch_seconds",
                         time.perf_counter() - started)
            live.inc("dbms_batch_queries", float(len(queries)))
        self._publish(queries, hits_before, misses_before)
        rec = get_recorder()
        if rec.enabled and queries:
            batch = rec.next_batch_id()
            for i, (query, answer) in enumerate(zip(queries, answers)):
                if isinstance(query, PositionQuery):
                    rec.record_query(
                        "position", answer_digest(answer),
                        time=query.time, object_id=query.object_id,
                        engine="batch", batch=batch, index=i,
                    )
                elif isinstance(query, RangeQuery):
                    rec.record_query(
                        "range", answer_digest(answer), time=query.time,
                        engine="batch", batch=batch, index=i,
                        polygon=[[v.x, v.y]
                                 for v in query.polygon.vertices],
                        where=query.where, class_name=query.class_name,
                    )
                else:
                    rec.record_query(
                        "within", answer_digest(answer), time=query.time,
                        engine="batch", batch=batch, index=i,
                        center=[query.center.x, query.center.y],
                        radius=query.radius, where=query.where,
                        class_name=query.class_name,
                    )
            rec.record(
                CACHE, hits=self.cache_hits - hits_before,
                misses=self.cache_misses - misses_before,
            )
        return answers

    def answer_over(self, index: Any, queries: list[BatchQuery],
                    stats: SearchStats | None = None,
                    stationary: bool = True) -> list[BatchAnswer]:
        """Answers refined from ``index``'s candidates, unvalidated.

        :meth:`run` calls this over the database's own index.  The
        fork pool (:mod:`repro.shard.parallel`) calls it once per
        partition with ``stationary=False``: such a piece holds only
        what that partition's candidates contribute.
        """
        candidates = self._gather_candidates(index, queries, stats)
        eligible = _EligibilitySets(self._db, stationary)
        answers: list[BatchAnswer] = []
        for i, query in enumerate(queries):
            if isinstance(query, PositionQuery):
                answers.append(self._answer_position(query))
            elif isinstance(query, RangeQuery):
                answers.append(self._answer_range(
                    query, candidates[i], eligible
                ))
            else:
                answers.append(self._answer_within(
                    query, candidates[i], eligible
                ))
        return answers

    def _validate(self, queries: list[BatchQuery]) -> None:
        db = self._db
        for query in queries:
            db._check_query_time(query.time)
            if isinstance(query, PositionQuery):
                db.record(query.object_id)
                continue
            db._check_index_coverage(query.time)
            if isinstance(query, WithinDistanceQuery) and query.radius < 0:
                raise QueryError(
                    f"radius must be nonnegative, got {query.radius}"
                )

    def _gather_candidates(self, index: Any, queries: list[BatchQuery],
                           stats: SearchStats | None) -> list[set[str] | None]:
        """Pre-refinement candidate sets, one slot per query.

        Position queries get ``None``; range/within queries get the
        same id set :meth:`MovingObjectDatabase._candidates` would
        return, but retrieved through the index's multi-search (one
        shared traversal on a :class:`TimeSpaceIndex`).
        """
        windows: list[tuple[Rect2D, float]] = []
        slots: list[int] = []
        for i, query in enumerate(queries):
            if isinstance(query, PositionQuery):
                continue
            windows.append((query_window(query), query.time))
            slots.append(i)
        candidates: list[set[str] | None] = [None] * len(queries)
        if not windows:
            return candidates
        if index is None:
            records = self._db._records
            for slot in slots:
                if stats is not None:
                    stats.nodes_visited += 1
                    stats.entries_tested += len(records)
                candidates[slot] = set(records)
        else:
            found = index.candidates_at_many(windows, stats)
            for slot, ids in zip(slots, found):
                candidates[slot] = ids
        return candidates

    def _answer_position(self, query: PositionQuery) -> PositionAnswer:
        db = self._db
        record = db._records[query.object_id]
        route = db.routes.get(record.attribute.route_id)
        elapsed = record.attribute.elapsed(query.time)
        bounds = self._bounds_for(record)
        interval = self._derived_for(query.object_id, query.time)[1]
        return PositionAnswer(
            object_id=query.object_id,
            time=query.time,
            position=record.database_position(route, query.time),
            slow_bound=bounds.slow(elapsed),
            fast_bound=bounds.fast(elapsed),
            error_bound=bounds.total(elapsed),
            interval=interval,
        )

    def _answer_range(self, query: RangeQuery, candidates: set[str],
                      eligible: "_EligibilitySets") -> RangeAnswer:
        db = self._db
        registry = get_registry()
        counters = (_classification_counters(registry)
                    if registry.enabled else None)
        kept = eligible.filter_mobile(candidates, query.where,
                                      query.class_name)
        polygon = query.polygon
        query_rect = polygon.bounding_rect
        rect_region = _exact_rect(polygon)
        t = query.time
        may: set[str] = set()
        must: set[str] = set()
        ids = list(kept)
        entries = self._entries_for(ids, t)
        out_mask = must_mask = None
        if self.vectorize and len(ids) >= _MIN_VEC_CANDIDATES:
            out_mask, must_mask = vec_geom.range_pretest(
                query_rect, rect_region, [entry[3] for entry in entries]
            )
        for i, object_id in enumerate(ids):
            geometry, bbox = entries[i][2:]
            if (not query_rect.intersects(bbox) if out_mask is None
                    else out_mask[i]):
                # Disjoint bboxes: the exact predicate cannot intersect
                # either, so OUT is decided without materialising it.
                outcome = Containment.OUT
            elif (rect_region is not None
                  and (rect_region.contains_rect(bbox) if must_mask is None
                       else must_mask[i])):
                # The polygon is exactly a closed rectangle holding the
                # whole geometry bbox, so the exact predicate is MUST.
                outcome = Containment.MUST
            else:
                outcome = classify_polyline_against_polygon(geometry, polygon)
            if counters is not None:
                db._count_outcome(counters, outcome)
            if outcome == Containment.OUT:
                continue
            may.add(object_id)
            if outcome == Containment.MUST:
                must.add(object_id)
        examined = len(kept)
        for object_id in eligible.stationary(query.where, query.class_name):
            examined += 1
            if polygon.contains_point(db._stationary[object_id][1]):
                may.add(object_id)
                must.add(object_id)
        return RangeAnswer(
            time=t,
            may=frozenset(may),
            must=frozenset(must),
            examined=examined,
            candidates=frozenset(kept),
        )

    def _answer_within(self, query: WithinDistanceQuery,
                       candidates: set[str],
                       eligible: "_EligibilitySets") -> RangeAnswer:
        db = self._db
        registry = get_registry()
        counters = (_classification_counters(registry)
                    if registry.enabled else None)
        kept = eligible.filter_mobile(candidates, query.where,
                                      query.class_name)
        center, radius, t = query.center, query.radius, query.time
        may: set[str] = set()
        must: set[str] = set()
        ids = list(kept)
        entries = self._entries_for(ids, t)
        out_mask = must_mask = None
        if self.vectorize and len(ids) >= _MIN_VEC_CANDIDATES:
            out_mask, must_mask = vec_geom.within_pretest(
                center, radius, [entry[3] for entry in entries]
            )
        for i, object_id in enumerate(ids):
            geometry, bbox = entries[i][2:]
            # Bbox distance bounds bracket the exact min/max distances
            # (the geometry lies inside its bbox), so these shortcuts
            # agree with the exact classification whenever they fire.
            # The vectorized screens are a hair conservative, so an
            # ulp-boundary bbox merely falls through to the exact
            # classifier; the outcome is the same either way.
            if (_rect_min_distance(center, bbox) > radius if out_mask is None
                    else out_mask[i]):
                outcome = Containment.OUT
            elif (_rect_max_distance(center, bbox) <= radius
                  if must_mask is None else must_mask[i]):
                outcome = Containment.MUST
            else:
                outcome = classify_polyline_within_distance(
                    center, radius, geometry
                )
            if counters is not None:
                db._count_outcome(counters, outcome)
            if outcome == Containment.OUT:
                continue
            may.add(object_id)
            if outcome == Containment.MUST:
                must.add(object_id)
        examined = len(kept)
        for object_id in eligible.stationary(query.where, query.class_name):
            examined += 1
            if db._stationary[object_id][1].distance_to(center) <= radius:
                may.add(object_id)
                must.add(object_id)
        return RangeAnswer(
            time=t,
            may=frozenset(may),
            must=frozenset(must),
            examined=examined,
            candidates=frozenset(kept),
        )

    def _publish(self, queries: list[BatchQuery], hits_before: int,
                 misses_before: int) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        kinds = {"position": 0, "range": 0, "within": 0}
        for query in queries:
            if isinstance(query, PositionQuery):
                kinds["position"] += 1
            elif isinstance(query, RangeQuery):
                kinds["range"] += 1
            else:
                kinds["within"] += 1
        help_text = "Queries answered by the batch engine, by kind."
        for kind, count in kinds.items():
            if count:
                registry.counter(
                    "dbms_batch_queries_total", help=help_text, kind=kind,
                ).inc(count)
        registry.counter(
            "dbms_batch_cache_hits_total",
            help="Uncertainty-cache hits in the batch engine.",
        ).inc(self.cache_hits - hits_before)
        registry.counter(
            "dbms_batch_cache_misses_total",
            help="Uncertainty-cache misses in the batch engine.",
        ).inc(self.cache_misses - misses_before)
        registry.gauge(
            "dbms_batch_cache_hit_rate",
            help="Lifetime hit rate of the batch uncertainty cache.",
        ).set(self.hit_rate())


class _EligibilitySets:
    """Per-batch hoisting of filter work.

    ``filter_mobile`` intersects a candidate set with the ids passing a
    ``(where, class_name)`` filter — computed once per distinct filter
    over all records, instead of per query over each candidate set.
    ``stationary`` does the same for the stationary population.  Both
    reproduce :meth:`MovingObjectDatabase._filter_candidates` membership
    exactly (candidate sets only ever contain known ids).  With
    ``stationary=False`` the stationary population reads as empty: a
    partition's piece of a pooled batch leaves it to the merge.
    """

    def __init__(self, database: MovingObjectDatabase,
                 stationary: bool = True) -> None:
        self._db = database
        self._include_stationary = stationary
        self._mobile: dict = {}
        self._stationary: dict = {}

    @staticmethod
    def _key(where: dict[str, Any] | None, class_name: str | None):
        if where is None and class_name is None:
            return _NO_FILTER
        items = None if where is None else tuple(sorted(where.items()))
        return (class_name, items)

    def filter_mobile(self, candidates: set[str],
                      where: dict[str, Any] | None,
                      class_name: str | None) -> set[str]:
        try:
            key = self._key(where, class_name)
        except TypeError:
            # Unhashable filter values: fall back to direct filtering.
            return set(self._db._filter_candidates(
                candidates, where, class_name
            ))
        if key is _NO_FILTER:
            return candidates
        passing = self._mobile.get(key)
        if passing is None:
            passing = frozenset(self._db._filter_candidates(
                frozenset(self._db._records), where, class_name
            ))
            self._mobile[key] = passing
        return candidates & passing

    def stationary(self, where: dict[str, Any] | None,
                   class_name: str | None):
        if not self._include_stationary:
            return frozenset()
        db = self._db
        try:
            key = self._key(where, class_name)
        except TypeError:
            return db._filter_candidates(
                db.stationary_id_set(), where, class_name
            )
        if key is _NO_FILTER:
            return db.stationary_id_set()
        passing = self._stationary.get(key)
        if passing is None:
            passing = frozenset(db._filter_candidates(
                db.stationary_id_set(), where, class_name
            ))
            self._stationary[key] = passing
        return passing

__all__ = [
    "BatchAnswer",
    "BatchQuery",
    "BatchQueryEngine",
    "PositionQuery",
    "RangeQuery",
    "WithinDistanceQuery",
]
