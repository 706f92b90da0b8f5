"""Unit tests for the batched query engine and the query core under it.

The load-bearing claim is byte-identical equivalence with the
independent reference (``tests/oracle/query_reference.py``: cache-free,
pre-test-free sequential refinement): a :class:`BatchQueryEngine` and
the single-query methods of :class:`MovingObjectDatabase` — one core,
one cache — must return exactly the reference's answers, on any
workload, with any index (time-space, linear scan, or none), with
filters, however single and batched calls interleave, and across
position updates (the shared cache must drop an object's entries when
its record changes and never serve a stale interval).  The same fixture
checks the record's start-travel memo: whatever happens to a record,
every query kind answers as a memo-free computation does.
"""

import dataclasses
import math
import pickle
import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core.policies import make_policy
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    ProximityQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.moving_object import MovingObjectRecord
from repro.dbms.persistence import database_from_dict, database_to_dict
from repro.dbms.schema import AttributeDef, Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.scan import LinearScanIndex
from repro.index.timespace import TimeSpaceIndex
from repro.obs import MetricsRegistry, observe, use_registry
from repro.routes.generators import grid_city_network
from repro.shard import uniform_grid_for
from repro.workloads.query_workloads import mixed_query_workload
from tests.oracle import query_reference as reference
from tests.oracle.query_reference import sequential

C = 5.0
QUERY_TIMES = (8.0, 10.0, 12.0)


def build_database(index, num_objects=12, seed=2, partitioning=None):
    """A small city fleet in a fresh database over ``index``."""
    rng = random.Random(seed)
    network = grid_city_network(6, 6, 0.5)
    database = MovingObjectDatabase(index=index, horizon=90.0,
                                    partitioning=partitioning)
    database.schema.define_mobile_point_class(
        "taxi", (AttributeDef("free", "bool"),)
    )
    database.schema.define(
        ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY)
    )
    object_ids = []
    for i in range(num_objects):
        route = network.random_route(rng, min_length=0.5)
        database.register_route(route)
        direction = rng.randrange(2)
        object_id = f"taxi-{i}"
        database.insert_moving_object(
            object_id, "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction,
            rng.uniform(0.1, 0.4), make_policy("ail", C),
            max_speed=0.8, attributes={"free": i % 2 == 0},
        )
        object_ids.append(object_id)
    min_x, min_y, max_x, max_y = network.bounding_extent()
    for i in range(3):
        database.insert_stationary_object(
            f"depot-{i}", "depot",
            Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)),
        )
    return database, network, object_ids


def build_workload(network, object_ids, count=60, seed=9):
    rng = random.Random(seed)
    queries = mixed_query_workload(
        network, rng, count, object_ids, QUERY_TIMES,
    )
    queries += [
        ProximityQuery(rng.choice(object_ids), rng.uniform(0.2, 1.5),
                       rng.choice(QUERY_TIMES))
        for _ in range(count // 10)
    ]
    rng.shuffle(queries)
    return queries


def assert_every_path_matches_reference(database, queries):
    """Batched, singly, and batched again over what the singles cached."""
    expected = sequential(database, queries)
    engine = BatchQueryEngine(database)
    assert engine.run(queries) == expected
    assert one_at_a_time(database, queries) == expected
    assert engine.run(queries) == expected


def one_at_a_time(database, queries):
    """Each query put singly to the database's own methods."""
    answers = []
    for query in queries:
        if isinstance(query, PositionQuery):
            answers.append(database.position_of(query.object_id, query.time))
        elif isinstance(query, RangeQuery):
            answers.append(database.range_query(
                query.polygon, query.time,
                where=query.where, class_name=query.class_name,
            ))
        elif isinstance(query, ProximityQuery):
            answers.append(database.within_distance_of_object(
                query.object_id, query.radius, query.time,
                where=query.where, class_name=query.class_name,
            ))
        else:
            answers.append(database.within_distance(
                query.center, query.radius, query.time,
                where=query.where, class_name=query.class_name,
            ))
    return answers


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_workload_with_timespace_index(self, seed):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), seed=seed
        )
        queries = build_workload(network, object_ids, seed=seed + 100)
        assert_every_path_matches_reference(database, queries)

    def test_without_index(self):
        database, network, object_ids = build_database(None)
        queries = build_workload(network, object_ids)
        assert_every_path_matches_reference(database, queries)

    def test_linear_scan_index_fallback(self):
        database, network, object_ids = build_database(LinearScanIndex())
        queries = build_workload(network, object_ids)
        # LinearScanIndex's multi-search is one whole-population
        # lookup per window.
        assert_every_path_matches_reference(database, queries)

    def test_filtered_queries(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        extent = network.bounding_extent()
        everywhere = Polygon.rectangle(
            extent[0] - 1.0, extent[1] - 1.0, extent[2] + 1.0, extent[3] + 1.0
        )
        center = Point((extent[0] + extent[2]) / 2.0,
                       (extent[1] + extent[3]) / 2.0)
        queries = [
            RangeQuery(everywhere, 10.0, where={"free": True}),
            RangeQuery(everywhere, 10.0, class_name="taxi"),
            RangeQuery(everywhere, 10.0, class_name="depot"),
            WithinDistanceQuery(center, 2.0, 10.0, where={"free": False},
                                class_name="taxi"),
            WithinDistanceQuery(center, 2.0, 10.0, class_name="depot"),
            ProximityQuery(object_ids[0], 2.0, 10.0, where={"free": True}),
            ProximityQuery(object_ids[1], 2.0, 10.0, class_name="depot"),
        ]
        expected = sequential(database, queries)
        assert_every_path_matches_reference(database, queries)
        # The free-cab filter actually bit: not every taxi is free.
        assert expected[0].may < expected[1].may

    def test_non_rectangular_polygon(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        triangle = Polygon.from_coordinates(
            [(-1.0, -1.0), (4.0, -1.0), (-1.0, 4.0)]
        )
        queries = [RangeQuery(triangle, t) for t in QUERY_TIMES]
        assert_every_path_matches_reference(database, queries)


class TestCacheBehaviour:
    def test_repeat_run_hits_cache(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        queries = build_workload(network, object_ids, count=30)
        engine = BatchQueryEngine(database)
        first = engine.run(queries)
        misses_after_first = engine.cache_misses
        second = engine.run(queries)
        assert second == first
        # Nothing changed, so the second run recomputes nothing.
        assert engine.cache_misses == misses_after_first
        assert engine.cache_hits > 0
        assert 0.0 < engine.hit_rate() <= 1.0

    def test_update_invalidates_only_moved_object(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        moved, other = object_ids[0], object_ids[1]
        queries = [PositionQuery(moved, 10.0), PositionQuery(other, 10.0)]
        stale = engine.run(queries)

        record = database.record(moved)
        route = database.routes.get(record.attribute.route_id)
        position = record.database_position(route, 4.0)
        database.process_update(PositionUpdateMessage(
            moved, 4.0, position.x, position.y, speed=0.7,
        ))

        fresh = engine.run(queries)
        assert fresh == sequential(database, queries)
        # The moved object was recomputed, not served stale...
        assert fresh[0].error_bound != stale[0].error_bound
        # ...while the untouched object's entry survived as a hit.
        assert fresh[1] == stale[1]

    def test_update_invalidates_range_answers(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        extent = network.bounding_extent()
        everywhere = Polygon.rectangle(
            extent[0] - 1.0, extent[1] - 1.0, extent[2] + 1.0, extent[3] + 1.0
        )
        queries = [RangeQuery(everywhere, 10.0)]
        engine.run(queries)
        for object_id in object_ids:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, 5.0)
            database.process_update(PositionUpdateMessage(
                object_id, 5.0, position.x, position.y, speed=0.2,
            ))
        assert engine.run(queries) == sequential(database, queries)

    def test_tiny_cache_still_correct(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        queries = build_workload(network, object_ids, count=40)
        expected = sequential(database, queries)
        engine = BatchQueryEngine(database, max_cache_entries=2)
        assert engine.run(queries) == expected
        assert engine.cache_size() <= 2

    def test_single_queries_share_the_engines_cache(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        queries = build_workload(network, object_ids, count=30)
        engine = BatchQueryEngine(database)
        engine.run(queries)
        core = database._core
        misses = core.misses
        assert one_at_a_time(database, queries) == sequential(
            database, queries)
        # Every interval the singles needed was derived by the batch...
        assert core.misses == misses
        # ...and the engine counts only its own lookups.
        assert engine.cache_hits + engine.cache_misses < core.hits + misses
        other = BatchQueryEngine(database)
        other.run(queries)
        assert other.cache_misses == 0 and other.cache_hits > 0

    def test_update_and_removal_drop_the_objects_entries(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        engine.run([PositionQuery(i, t)
                    for i in object_ids for t in QUERY_TIMES])
        assert engine.cache_size() == len(object_ids) * len(QUERY_TIMES)
        install_update(database, object_ids[0])
        database.remove_object(object_ids[1])
        assert engine.cache_size() == (
            (len(object_ids) - 2) * len(QUERY_TIMES))
        held = {i for bucket in database._core._derived.values()
                for i in bucket}
        assert held == set(object_ids[2:])
        assert set(database._core._bounds) == set(object_ids[2:])

    def test_clock_advance_evicts_unaskable_times(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        for t in (4.0, 6.0, 8.0):
            database.range_query(Polygon.rectangle(-1.0, -1.0, 9.0, 9.0), t)
        assert set(database._core._derived) == {4.0, 6.0, 8.0}
        install_update(database, object_ids[0], t=6.0)
        # 4.0 can never be asked about again; 6.0 (now) and 8.0 can.
        assert set(database._core._derived) == {6.0, 8.0}
        assert database._core.size() == 2 * (len(object_ids) - 1)
        with pytest.raises(QueryError):
            database.position_of(object_ids[1], 4.0)

    def test_ever_new_query_times_do_not_accumulate(self):
        """A monitoring loop: update, then ask about "now", forever."""
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        everywhere = Polygon.rectangle(-1.0, -1.0, 9.0, 9.0)
        for step in range(1, 40):
            now = step * 0.25
            install_update(database, object_ids[step % len(object_ids)],
                           t=now)
            database.range_query(everywhere, now)
            database.nearest(Point(1.0, 1.0), 3, now)
            assert set(database._core._derived) == {now}
            assert database._core.size() == len(object_ids)

    def test_invalid_cache_capacity_rejected(self):
        database, _, _ = build_database(None, num_objects=1)
        with pytest.raises(QueryError):
            BatchQueryEngine(database, max_cache_entries=0)


NAN = float("nan")
UNIT_SQUARE = Polygon.rectangle(0.0, 0.0, 1.0, 1.0)

#: ``name -> query(object_id)``: one NaN in each place a query takes a float.
NAN_QUERIES = {
    "position-time": lambda i: PositionQuery(i, NAN),
    "range-time": lambda i: RangeQuery(UNIT_SQUARE, NAN),
    "range-vertex": lambda i: RangeQuery(Polygon.from_coordinates(
        [(0.0, 0.0), (1.0, 0.0), (1.0, NAN)]), 10.0),
    "within-time": lambda i: WithinDistanceQuery(Point(1.0, 1.0), 1.0, NAN),
    "within-radius": lambda i: WithinDistanceQuery(
        Point(1.0, 1.0), NAN, 10.0),
    "within-center-x": lambda i: WithinDistanceQuery(
        Point(NAN, 1.0), 1.0, 10.0),
    "within-center-y": lambda i: WithinDistanceQuery(
        Point(1.0, NAN), 1.0, 10.0),
    "proximity-time": lambda i: ProximityQuery(i, 1.0, NAN),
    "proximity-radius": lambda i: ProximityQuery(i, NAN, 10.0),
}


INF = math.inf

#: ``name -> query``: one infinite coordinate in each place a range or
#: within query takes a point.  Ray casting crosses an infinite edge at
#: NaN, so such a polygon would answer "may" where it should not.
INF_QUERIES = {
    "range-vertex-x": RangeQuery(Polygon.from_coordinates(
        [(0.0, 0.0), (INF, 0.0), (INF, 1.0), (0.0, 1.0)]), 10.0),
    "range-vertex-y": RangeQuery(Polygon.from_coordinates(
        [(0.0, 0.0), (1.0, 0.0), (1.0, -INF)]), 10.0),
    "within-center-x": WithinDistanceQuery(Point(INF, 1.0), 1.0, 10.0),
    "within-center-y": WithinDistanceQuery(Point(1.0, -INF), 1.0, 10.0),
}


def grid_plan(num_shards):
    bounds = Rect2D(*grid_city_network(6, 6, 0.5).bounding_extent())
    return uniform_grid_for(bounds, num_shards)


class TestValidationAndMetrics:
    def test_unknown_object_raises(self):
        database, _, _ = build_database(None, num_objects=2)
        engine = BatchQueryEngine(database)
        with pytest.raises(QueryError):
            engine.run([PositionQuery("ghost", 5.0)])

    def test_negative_radius_raises(self):
        database, _, _ = build_database(None, num_objects=2)
        engine = BatchQueryEngine(database)
        with pytest.raises(QueryError):
            engine.run([WithinDistanceQuery(Point(0.0, 0.0), -1.0, 5.0)])

    @pytest.mark.parametrize("partitioned", [False, True],
                             ids=["monolithic", "2-partition"])
    @pytest.mark.parametrize("name", sorted(NAN_QUERIES))
    def test_nan_is_rejected_singly_and_batched(self, name, partitioned):
        database, _, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), num_objects=4,
            partitioning=grid_plan(2) if partitioned else None)
        query = NAN_QUERIES[name](object_ids[0])
        with pytest.raises(QueryError, match="NaN"):
            one_at_a_time(database, [query])
        healthy = PositionQuery(object_ids[1], 10.0)
        with pytest.raises(QueryError, match="NaN"):
            BatchQueryEngine(database).run([healthy, query])
        # Nothing was cached under a key that can never hit.
        assert all(t == t for t in database._core._derived)

    @pytest.mark.parametrize("partitioned", [False, True],
                             ids=["monolithic", "2-partition"])
    def test_nan_nearest_is_rejected(self, partitioned):
        database, _, _ = build_database(
            TimeSpaceIndex(slab_minutes=5.0), num_objects=4,
            partitioning=grid_plan(2) if partitioned else None)
        for center, t in [(Point(1.0, 1.0), NAN), (Point(NAN, 1.0), 10.0),
                          (Point(1.0, NAN), 10.0)]:
            with pytest.raises(QueryError, match="NaN"):
                database.nearest(center, 2, t)

    @pytest.mark.parametrize("partitioned", [False, True],
                             ids=["monolithic", "2-partition"])
    @pytest.mark.parametrize("name", sorted(INF_QUERIES))
    def test_an_infinite_coordinate_is_rejected_singly_and_batched(
            self, name, partitioned):
        database, _, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), num_objects=4,
            partitioning=grid_plan(2) if partitioned else None)
        query = INF_QUERIES[name]
        with pytest.raises(QueryError, match="must be finite"):
            one_at_a_time(database, [query])
        healthy = PositionQuery(object_ids[1], 10.0)
        with pytest.raises(QueryError, match="must be finite"):
            BatchQueryEngine(database).run([healthy, query])

    def test_a_rectangle_is_not_a_range_polygon(self):
        database, _, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), num_objects=4)
        rect = Rect2D(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(QueryError, match="needs a Polygon, got Rect2D"):
            database.range_query(rect, 10.0)
        with pytest.raises(QueryError, match="needs a Polygon, got Rect2D"):
            BatchQueryEngine(database).run(
                [PositionQuery(object_ids[0], 10.0), RangeQuery(rect, 10.0)])

    def test_infinite_radius_stays_legal(self):
        database, _, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), num_objects=4)
        queries = [WithinDistanceQuery(Point(1.0, 1.0), math.inf, 10.0),
                   ProximityQuery(object_ids[0], math.inf, 10.0)]
        everyone = set(object_ids) | set(database.stationary_ids())
        answers = BatchQueryEngine(database).run(queries)
        assert answers == one_at_a_time(database, queries)
        assert answers == sequential(database, queries)
        assert answers[0].must == everyone
        assert answers[1].must == everyone - {object_ids[0]}

    def test_metrics_exported(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        queries = build_workload(network, object_ids, count=30)
        engine = BatchQueryEngine(database)
        with use_registry(MetricsRegistry()) as registry:
            engine.run(queries)
            total = sum(
                registry.value("dbms_batch_queries_total", kind=kind)
                for kind in ("position", "range", "within", "proximity")
            )
            assert total == len(queries)
            hits = registry.value("dbms_batch_cache_hits_total")
            misses = registry.value("dbms_batch_cache_misses_total")
            assert hits == engine.cache_hits
            assert misses == engine.cache_misses
            assert (registry.value("dbms_batch_cache_hit_rate")
                    == pytest.approx(engine.hit_rate()))

    def test_a_failing_batch_is_seen_by_every_sink(self):
        """One timed block: a batch that raises is one latency sample
        in the registry, one error, and its queries still count."""
        database, _, object_ids = build_database(None, num_objects=2)
        queries = [PositionQuery(object_ids[0], 5.0),
                   PositionQuery("ghost", 5.0)]
        with observe(registry=True) as p:
            with pytest.raises(QueryError, match="unknown object id"):
                BatchQueryEngine(database).run(queries)
            registry = p.registry
        assert registry.get("dbms_batch_seconds").count == 1
        assert registry.value("dbms_batch_errors_total") == 1.0
        assert registry.value("dbms_batch_queries_total",
                              kind="position") == 2.0


# ----------------------------------------------------------------------
# The start-travel memo and the attribute-tagged cache
# ----------------------------------------------------------------------

@contextmanager
def memo_free():
    """Records project their start point afresh on every call."""
    with mock.patch.object(
        MovingObjectRecord, "start_travel",
        lambda self, route: self.attribute.start_travel(route),
    ):
        yield


def every_query_kind(database, object_ids, by_reference=False):
    """One answer list covering all five query entry points.

    Through the database's own methods, or (``by_reference``) through
    the cache-free reference functions over the same records.
    """
    def put(name, *arguments):
        if by_reference:
            return getattr(reference, name)(database, *arguments)
        return getattr(database, name)(*arguments)

    center = Point(1.25, 1.25)
    window = Polygon.rectangle(0.4, 0.4, 2.1, 1.9)
    answers = []
    for t in QUERY_TIMES:
        answers.extend(put("position_of", i, t) for i in object_ids)
        answers.append(put("range_query", window, t))
        answers.append(put("within_distance", center, 0.9, t))
        answers.append(put("within_distance_of_object",
                           object_ids[0], 1.0, t))
        answers.append(put("nearest", center, 5, t))
    return answers


def install_update(database, object_id, t=5.0, **changes):
    """An update at the dead-reckoned position, plus ``changes``."""
    record = database.record(object_id)
    route = database.routes.get(record.attribute.route_id)
    position = record.database_position(route, t)
    fields = dict(x=position.x, y=position.y, speed=record.attribute.speed)
    fields.update(changes)
    database.process_update(PositionUpdateMessage(object_id, t, **fields))


def change_route_and_direction(database, object_ids):
    """Half the fleet hops onto a neighbour's route, facing the other way."""
    for mover, neighbour in zip(object_ids[::2], object_ids[1::2]):
        target = database.record(neighbour).attribute
        route = database.routes.get(target.route_id)
        direction = 1 - target.direction
        position = route.travel_point(0.25 * route.length, direction)
        install_update(database, mover, x=position.x, y=position.y,
                       route_id=route.route_id, direction=direction)


def change_direction_only(database, object_ids):
    for object_id in object_ids[::2]:
        direction = 1 - database.record(object_id).attribute.direction
        install_update(database, object_id, direction=direction)


def change_speed_only(database, object_ids):
    for object_id in object_ids[::2]:
        install_update(database, object_id, speed=0.37)


def change_policy_only(database, object_ids):
    for object_id in object_ids[::2]:
        install_update(database, object_id, policy="dl")


def remove_and_reinsert(database, object_ids):
    """Same ids, fresh records (``generation`` back at 0), other routes."""
    for mover, neighbour in zip(object_ids[::2], object_ids[1::2]):
        target = database.record(neighbour).attribute
        route = database.routes.get(target.route_id)
        database.remove_object(mover)
        database.insert_moving_object(
            mover, "taxi", route.route_id, 5.0,
            route.travel_point(0.0, target.direction), target.direction,
            0.2, make_policy("ail", C), max_speed=0.8,
            attributes={"free": True},
        )


def rebuild_index(database, object_ids):
    change_speed_only(database, object_ids)
    database.rebuild_index(slab_minutes=2.5)


def snapshot_round_trip(database, object_ids, index):
    change_route_and_direction(database, object_ids)
    return database_from_dict(database_to_dict(database), index=index,
                              partitioning=database.partitioning)


#: ``name -> step(database, object_ids)``.
RECORD_CHANGES = {
    "route-and-direction": change_route_and_direction,
    "direction-only": change_direction_only,
    "speed-only": change_speed_only,
    "policy-only": change_policy_only,
    "remove-and-reinsert": remove_and_reinsert,
    "rebuild-index": rebuild_index,
}


class TestRecordChanges:
    """Memo and cache stay exact through everything that changes a record."""

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single", "sharded"])
    @pytest.mark.parametrize(
        "change", sorted(RECORD_CHANGES) + ["snapshot-round-trip"])
    def test_every_query_kind_equals_memo_free(self, change, sharded):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0),
            partitioning=grid_plan(4) if sharded else None)
        engine = BatchQueryEngine(database)
        queries = build_workload(network, object_ids, count=40)
        # Prime every memo and the engine's cache with the old state.
        before = every_query_kind(database, object_ids)
        engine.run(queries)

        if change == "snapshot-round-trip":
            database = snapshot_round_trip(
                database, object_ids, TimeSpaceIndex(slab_minutes=5.0))
            engine = BatchQueryEngine(database)
        else:
            RECORD_CHANGES[change](database, object_ids)

        # Batched and single calls interleave over the one shared cache.
        batch = engine.run(queries[:20])
        answers = every_query_kind(database, object_ids)
        batch += engine.run(queries[20:])
        assert one_at_a_time(database, queries) == batch
        with memo_free():
            assert answers == every_query_kind(
                database, object_ids, by_reference=True)
            assert batch == sequential(database, queries)
        if change != "rebuild-index":
            # The change was visible to the queries at all.
            assert answers != before

    def test_reinserted_id_is_not_served_its_predecessors_interval(self):
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        mover = object_ids[0]
        queries = [PositionQuery(mover, 10.0)]
        stale = engine.run(queries)
        remove_and_reinsert(database, object_ids)
        assert database.record(mover).generation == 0
        fresh = engine.run(queries)
        assert fresh == sequential(database, queries)
        assert fresh[0].interval.route_id != stale[0].interval.route_id

    def test_memo_is_invisible_to_equality_repr_and_pickle(self):
        database, _, object_ids = build_database(None, num_objects=2)
        record = database.record(object_ids[0])
        route = database.routes.get(record.attribute.route_id)
        twin = dataclasses.replace(record)          # never primed
        expected = record.attribute.start_travel(route)
        assert record.start_travel(route) == expected
        assert record.start_travel(route) == expected   # from the memo
        assert record == twin
        assert repr(record) == repr(twin)
        shipped = pickle.loads(pickle.dumps(record))
        assert repr(shipped) == repr(record)
        assert shipped.attribute == record.attribute
        assert shipped.start_travel(route) == expected
        # A new attribute object, even an equal one, starts over.
        record.attribute = pickle.loads(pickle.dumps(record.attribute))
        with mock.patch.object(
            type(record.attribute), "start_travel",
            return_value=-1.0,
        ):
            assert record.start_travel(route) == -1.0
