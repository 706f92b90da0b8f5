"""Sharded-database correctness: ownership, fan-out, byte-identical answers.

The contract under test is the one the benchmark gates: a
:class:`MovingObjectDatabase` under a partitioning, for any shard
count, answers every query byte-identically to one over a single
:class:`TimeSpaceIndex` fed the identical workload.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from repro.cli import main
from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import observe
from repro.routes.generators import grid_city_network
from repro.routes.route import Route
from repro.shard import UniformGridPartitioning, uniform_grid_for
from repro.trace.events import answer_digest
from repro.workloads.query_workloads import mixed_query_workload

QUERY_TIMES = (6.0, 8.0)

#: A 4x2 corridor split into a left and a right shard at x = 2.
CORRIDOR_BOUNDS = Rect2D(0.0, 0.0, 4.0, 2.0)


def sharded_database(partitioning):
    return MovingObjectDatabase(index=TimeSpaceIndex(),
                                partitioning=partitioning)


def populate_corridor(database):
    """One car near the boundary, one anchor car deep in each half."""
    database.schema.define_mobile_point_class("car")
    route = Route("corridor", Polyline([Point(0.0, 1.0), Point(4.0, 1.0)]))
    database.register_route(route)
    for object_id, x in (("car-edge", 1.9), ("car-left", 0.3),
                         ("car-right", 3.6)):
        database.insert_moving_object(
            object_id, "car", "corridor", 0.0, Point(x, 1.0), 0, 0.3,
            make_policy("dl", 5.0), max_speed=0.6,
        )
    return database


class TestBoundaryStraddle:
    @pytest.fixture
    def pair(self):
        single = populate_corridor(
            MovingObjectDatabase(index=TimeSpaceIndex())
        )
        sharded = populate_corridor(sharded_database(
            UniformGridPartitioning(CORRIDOR_BOUNDS, 2, 1)
        ))
        return single, sharded

    def test_exactly_one_owner(self, pair):
        _, sharded = pair
        assert [sharded.owner_of(object_id) for object_id
                in ("car-edge", "car-left", "car-right")] == [0, 0, 1]
        assert "car-edge" in sharded._index

    def test_owner_is_sticky_until_removal(self, pair):
        _, sharded = pair
        with observe(registry=True) as p:
            # car-edge drives into the right shard's cell.
            sharded.process_update(PositionUpdateMessage(
                "car-edge", 1.0, 3.0, 1.0, 0.3))
            assert sharded.owner_of("car-edge") == 0
            assert p.registry.value("shard_updates_total", shard="0") == 1
            sharded.remove_object("car-edge")
            assert p.registry.value("shard_objects", shard="0") == 1
        with pytest.raises(QueryError, match="no owning shard"):
            sharded.owner_of("car-edge")

    def test_straddling_window_fans_to_both_shards(self, pair):
        _, sharded = pair
        # Reaches car-right's first slab box, which starts at x = 3.225.
        straddle = Polygon.rectangle(1.5, 0.5, 3.5, 1.5)
        with observe(registry=True) as p:
            answer = sharded.range_query(straddle, 2.0)
            fanout = p.registry.get("shard_query_fanout")
            assert (fanout.count, fanout.sum) == (1, 2.0)
            assert p.registry.value("shard_queries_total") == 1
        assert {sharded.owner_of(object_id)
                for object_id in answer.candidates} == {0, 1}

    @pytest.mark.parametrize("center_x", [1.6, 2.6])
    def test_visible_from_both_sides_of_the_boundary(self, pair,
                                                     center_x):
        # At t=2 the edge car's predicted position is x = 2.5 and its
        # uncertainty region straddles x = 2: a query window on either
        # side intersects it.  The single database is the premise
        # check; the sharded merge must then match it byte for byte.
        single, sharded = pair
        expected = single.within_distance(Point(center_x, 1.0), 0.5, 2.0)
        assert "car-edge" in expected.may | expected.must
        assert sharded.within_distance(
            Point(center_x, 1.0), 0.5, 2.0
        ) == expected

    def test_position_answers_match(self, pair):
        single, sharded = pair
        for object_id in ("car-edge", "car-left", "car-right"):
            assert (sharded.position_of(object_id, 2.0)
                    == single.position_of(object_id, 2.0))


def populate_fleet(database, num_objects=14, seed=5):
    """An identical small city fleet for any database facade."""
    rng = random.Random(seed)
    network = grid_city_network(6, 6, 0.5)
    database.schema.define_mobile_point_class("taxi")
    object_ids = []
    for i in range(num_objects):
        route = network.random_route(rng, min_length=0.5)
        database.register_route(route)
        direction = rng.randrange(2)
        object_id = f"taxi-{i}"
        database.insert_moving_object(
            object_id, "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction,
            rng.uniform(0.1, 0.4), make_policy("ail", 5.0),
            max_speed=0.8,
        )
        object_ids.append(object_id)
    for object_id in object_ids[::2]:
        record = database.record(object_id)
        route = database.routes.get(record.attribute.route_id)
        position = record.database_position(route, 4.0)
        database.process_update(PositionUpdateMessage(
            object_id, 4.0, position.x, position.y, speed=0.3,
        ))
    return network, object_ids


def fleet_bounds():
    return Rect2D(*grid_city_network(6, 6, 0.5).bounding_extent())


def build_queries(network, object_ids, count=40, seed=9):
    return mixed_query_workload(
        network, random.Random(seed), count, object_ids, QUERY_TIMES,
    )


def digest(answers) -> str:
    rollup = hashlib.sha256()
    for answer in answers:
        rollup.update(answer_digest(answer).encode("ascii"))
    return rollup.hexdigest()


def test_a_partitioning_needs_an_index():
    with pytest.raises(QueryError, match="needs an index"):
        MovingObjectDatabase(partitioning=uniform_grid_for(fleet_bounds(), 2))


class TestDegenerateSingleShard:
    def test_one_shard_equals_single_database(self):
        single = MovingObjectDatabase(index=TimeSpaceIndex())
        network, object_ids = populate_fleet(single)
        sharded = sharded_database(uniform_grid_for(fleet_bounds(), 1))
        populate_fleet(sharded)
        assert sharded.partitioning.num_shards == 1
        assert sorted(sharded.object_ids()) == sorted(single.object_ids())

        queries = build_queries(network, object_ids)
        expected = BatchQueryEngine(single).run(queries)
        assert BatchQueryEngine(sharded).run(queries) == expected
        assert (sharded.nearest(Point(1.5, 1.5), 3, 8.0)
                == single.nearest(Point(1.5, 1.5), 3, 8.0))
        assert (sharded.within_distance_of_object("taxi-0", 1.0, 8.0)
                == single.within_distance_of_object("taxi-0", 1.0, 8.0))


class TestShardJobsInvariance:
    """However many shards split the work, the answers are the same."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_answer_digests_invariant(self, num_shards):
        single = MovingObjectDatabase(index=TimeSpaceIndex())
        network, object_ids = populate_fleet(single)
        queries = build_queries(network, object_ids)
        expected = BatchQueryEngine(single).run(queries)
        expected_digest = digest(expected)

        sharded = sharded_database(
            uniform_grid_for(fleet_bounds(), num_shards)
        )
        populate_fleet(sharded)
        answers = BatchQueryEngine(sharded).run(queries)
        assert answers == expected, num_shards
        assert digest(answers) == expected_digest, num_shards

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_one_at_a_time_answers_invariant(self, num_shards):
        single = MovingObjectDatabase(index=TimeSpaceIndex())
        network, object_ids = populate_fleet(single)
        sharded = sharded_database(
            uniform_grid_for(fleet_bounds(), num_shards)
        )
        populate_fleet(sharded)
        for database in (single, sharded):
            database.schema.define(ObjectClass(
                "depot", SpatialKind.POINT, Mobility.STATIONARY
            ))
            database.insert_stationary_object("depot-0", "depot",
                                              Point(1.5, 1.5))
        center = Point(1.5, 1.5)
        for t in QUERY_TIMES:
            for object_id in object_ids:
                assert (sharded.position_of(object_id, t)
                        == single.position_of(object_id, t))
                assert (
                    sharded.within_distance_of_object(object_id, 0.8, t)
                    == single.within_distance_of_object(object_id, 0.8, t)
                )
            assert (sharded.within_distance(center, 1.0, t)
                    == single.within_distance(center, 1.0, t))
            assert (sharded.nearest(center, 5, t)
                    == single.nearest(center, 5, t))


#: ``shards -> (owner of taxi-0..13, partition_digest())``.
#: The owners are those the facade class of PR 14 laid out on this fleet;
#: the content digests were re-pinned once, when the grid began to
#: construct its staircases (same endpoints and lengths, other elbows).
PR14_LAYOUT = {
    1: ([0] * 14,
        "fe9151fd8bd7ee6e8f93b335215736fc1d182978d23f99d8fc194a7301853c4e"),
    2: ([0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0],
        "5244e4879fc07ad34313a34d8da142ac5bb0755f3185059350c0ddc8efc881e2"),
    4: ([0, 3, 0, 1, 3, 0, 2, 0, 0, 2, 3, 2, 1, 2],
        "3db7bbe10aae68d55dfabf21f1147726f6aba5fe429dbb8a0d14bd53edbf936c"),
    7: ([2, 6, 2, 3, 3, 0, 1, 1, 0, 2, 4, 1, 3, 0],
        "f8382338ddbc7896176084986beddb2af272de45405cde0f823cfba67b6f198e"),
}


class TestLayoutUnchanged:
    @pytest.mark.parametrize("num_shards", sorted(PR14_LAYOUT))
    def test_owners_and_partition_content_match_the_facade(self, num_shards):
        sharded = sharded_database(
            uniform_grid_for(fleet_bounds(), num_shards)
        )
        _, object_ids = populate_fleet(sharded)
        owners, content = PR14_LAYOUT[num_shards]
        assert [sharded.owner_of(o) for o in object_ids] == owners
        assert sharded.partition_digest() == content
        assert len(sharded._index) == len(object_ids)


class TestSizeGauges:
    def test_index_objects_is_the_sum_of_shard_objects(self):
        """Every shard has a ``shard_objects`` line, the one that owns no
        object too (shard 0 here), and they sum to ``index_objects``."""
        out = io.StringIO()
        assert main(["stats", "--name", "taxi", "--size", "12",
                     "--duration", "10", "--queries", "5", "--seed", "3",
                     "--format", "prom", "--shards", "4"], out=out) == 0
        samples = dict(line.rsplit(" ", 1)
                       for line in out.getvalue().splitlines()
                       if line and not line.startswith("#"))
        owned = [float(value) for name, value in samples.items()
                 if name.startswith("shard_objects{")]
        assert len(owned) == 4
        assert 0.0 in owned
        assert float(samples["index_objects"]) == sum(owned) == 12
