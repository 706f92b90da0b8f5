"""The five query kinds as straight-line sequential refinement.

These are the bodies ``MovingObjectDatabase.position_of``,
``range_query``, ``within_distance``, ``within_distance_of_object`` and
``nearest`` had before they became calls into the one query core
(:mod:`repro.dbms.refine`), kept as free functions over a database's
record tables: no cache, no bbox pre-tests, no hoisted filter sets —
``record.uncertainty`` and a ``classify_*`` call per candidate, every
value derived afresh from the installed position attribute.  Since a
single query and a batch now share one implementation, "batch == one at
a time" proves nothing; this module is the independent side of every
differential test, compared with exact ``==``, and must never be edited
to follow the core.

Candidates come from ``database._index.candidates_at`` (the index is
tested on its own), so ``examined`` and ``candidates`` are comparable
too.  No validation: the callers put only answerable queries.
"""

from __future__ import annotations

from repro.dbms.batch import PositionQuery, ProximityQuery, RangeQuery
from repro.dbms.query import (
    Containment,
    NearestAnswer,
    PositionAnswer,
    RangeAnswer,
    classify_against_polygon,
    classify_within_distance,
    distance_range_between_intervals,
    distance_range_to_interval,
)
from repro.geometry.bbox import Rect2D


def _filtered(database, object_ids, where, class_name):
    """Ids passing the class and attribute-equality filters."""
    kept = set()
    for object_id in object_ids:
        if object_id in database._records:
            object_class = database._records[object_id].class_name
        else:
            object_class = database._stationary[object_id][0]
        if class_name is not None and object_class != class_name:
            continue
        if where:
            row = database.table(object_class).get(object_id)
            if any(row.get(k) != v for k, v in where.items()):
                continue
        kept.add(object_id)
    return kept


def _candidates(database, window, t, where, class_name):
    if database._index is None:
        found = set(database._records)
    else:
        found = database._index.candidates_at(window, t)
    return _filtered(database, found, where, class_name)


def _interval_of(database, object_id, t):
    record = database._records[object_id]
    route = database.routes.get(record.attribute.route_id)
    return record.uncertainty(route, t), route


def _range_answer(database, t, candidates, classify, classify_point,
                  where, class_name):
    """``classify(interval, route)`` and ``classify_point(point)`` give
    a :class:`Containment` outcome each."""
    may, must = set(), set()
    examined = len(candidates)
    stationary = _filtered(database, database._stationary, where, class_name)
    outcomes = [
        (object_id, classify(*_interval_of(database, object_id, t)))
        for object_id in candidates
    ] + [
        (object_id, classify_point(database._stationary[object_id][1]))
        for object_id in stationary
    ]
    for object_id, outcome in outcomes:
        if outcome == Containment.OUT:
            continue
        may.add(object_id)
        if outcome == Containment.MUST:
            must.add(object_id)
    return RangeAnswer(
        time=t, may=frozenset(may), must=frozenset(must),
        examined=examined + len(stationary),
        candidates=frozenset(candidates),
    )


def position_of(database, object_id, t):
    record = database._records[object_id]
    route = database.routes.get(record.attribute.route_id)
    elapsed = record.attribute.elapsed(t)
    bounds = record.bounds()
    return PositionAnswer(
        object_id=object_id,
        time=t,
        position=record.database_position(route, t),
        slow_bound=bounds.slow(elapsed),
        fast_bound=bounds.fast(elapsed),
        error_bound=bounds.total(elapsed),
        interval=record.uncertainty(route, t),
    )


def range_query(database, polygon, t, where=None, class_name=None):
    candidates = _candidates(
        database, polygon.bounding_rect, t, where, class_name)
    return _range_answer(
        database, t, candidates,
        lambda interval, route: classify_against_polygon(
            interval, route, polygon),
        lambda point: Containment.MUST if polygon.contains_point(point)
        else Containment.OUT,
        where, class_name,
    )


def within_distance(database, center, radius, t, where=None,
                    class_name=None):
    window = Rect2D(center.x - radius, center.y - radius,
                    center.x + radius, center.y + radius)
    candidates = _candidates(database, window, t, where, class_name)
    return _range_answer(
        database, t, candidates,
        lambda interval, route: classify_within_distance(
            center, radius, interval, route),
        lambda point: Containment.MUST
        if point.distance_to(center) <= radius else Containment.OUT,
        where, class_name,
    )


def _by_distance_range(minimum, maximum, radius):
    if minimum > radius:
        return Containment.OUT
    return Containment.MUST if maximum <= radius else Containment.MAY


def within_distance_of_object(database, anchor_id, radius, t, where=None,
                              class_name=None):
    anchor_interval, anchor_route = _interval_of(database, anchor_id, t)
    window = anchor_interval.geometry(
        anchor_route).bounding_rect().expanded(radius)
    candidates = _candidates(database, window, t, where, class_name)
    candidates.discard(anchor_id)
    return _range_answer(
        database, t, candidates,
        lambda interval, route: _by_distance_range(
            *distance_range_between_intervals(
                anchor_interval, anchor_route, interval, route), radius),
        lambda point: _by_distance_range(
            *distance_range_to_interval(
                point, anchor_interval, anchor_route), radius),
        where, class_name,
    )


def nearest(database, center, k, t, where=None, class_name=None):
    entries = []
    for object_id in _filtered(database, database._records, where,
                               class_name):
        interval, route = _interval_of(database, object_id, t)
        entries.append(NearestAnswer(
            object_id, *distance_range_to_interval(center, interval, route)))
    for object_id in _filtered(database, database._stationary, where,
                               class_name):
        distance = database._stationary[object_id][1].distance_to(center)
        entries.append(NearestAnswer(object_id, distance, distance))
    entries.sort(key=lambda e: (e.min_distance, e.object_id))
    return [
        NearestAnswer(
            object_id=entry.object_id,
            min_distance=entry.min_distance,
            max_distance=entry.max_distance,
            certain=entry.max_distance <= min(
                (other.min_distance for other in entries[rank + 1:]),
                default=float("inf")),
        )
        for rank, entry in enumerate(entries[:k])
    ]


def answer(database, query):
    """The reference answer to one batch-engine query object."""
    if isinstance(query, PositionQuery):
        return position_of(database, query.object_id, query.time)
    selection = dict(where=query.where, class_name=query.class_name)
    if isinstance(query, RangeQuery):
        return range_query(database, query.polygon, query.time, **selection)
    if isinstance(query, ProximityQuery):
        return within_distance_of_object(
            database, query.object_id, query.radius, query.time, **selection)
    return within_distance(
        database, query.center, query.radius, query.time, **selection)


def sequential(database, queries):
    return [answer(database, query) for query in queries]
