"""Unit tests for stationary objects and attribute-filtered queries."""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef, Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError, SchemaError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route
from repro.shard import UniformGridPartitioning

C = 5.0


def two_partitions():
    return {"index": TimeSpaceIndex(),
            "partitioning": UniformGridPartitioning(
                Rect2D(0.0, -1.0, 30.0, 1.0), 2, 1)}


def make_db(**layout):
    database = MovingObjectDatabase(**layout)
    database.schema.define_mobile_point_class(
        "taxi", (AttributeDef("free", "bool"),)
    )
    database.schema.define(
        ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY,
                    (AttributeDef("fuel", "bool"),))
    )
    database.register_route(straight_route(30.0, "h1"))
    return database


@pytest.fixture
def db():
    return make_db()


@pytest.fixture(params=[dict, two_partitions],
                ids=["monolithic", "two-partitions"])
def either_db(request):
    return make_db(**request.param())


def add_taxi(db, object_id, x, free=True, speed=0.0):
    db.insert_moving_object(
        object_id, "taxi", "h1", 0.0, Point(x, 0.0), 0, speed,
        make_policy("fixed-threshold", C, bound=0.5), max_speed=1.0,
        attributes={"free": free},
    )


class TestStationaryObjects:
    def test_insert_and_position(self, db):
        db.insert_stationary_object("d1", "depot", Point(5.0, 2.0),
                                    {"fuel": True})
        assert db.stationary_position("d1") == Point(5.0, 2.0)
        assert db.stationary_ids() == ["d1"]
        assert len(db) == 1

    def test_mobile_class_rejected(self, db):
        with pytest.raises(SchemaError):
            db.insert_stationary_object("x", "taxi", Point(0, 0))

    def test_non_point_class_rejected(self, db):
        db.schema.define(ObjectClass("zone", SpatialKind.POLYGON))
        with pytest.raises(SchemaError):
            db.insert_stationary_object("z", "zone", Point(0, 0))

    def test_duplicate_rejected(self, db):
        db.insert_stationary_object("d1", "depot", Point(0, 0))
        with pytest.raises(SchemaError):
            db.insert_stationary_object("d1", "depot", Point(1, 1))
        add_taxi(db, "t1", 0.0)
        with pytest.raises(SchemaError):
            db.insert_stationary_object("t1", "depot", Point(1, 1))

    def test_mobile_id_may_not_shadow_a_stationary_one(self, either_db):
        # insert_moving_object used to check the mobile table only: the
        # id then counted twice and remove_object dropped the depot.
        db = either_db
        db.insert_stationary_object("x", "depot", Point(0, 0))
        with pytest.raises(SchemaError, match="duplicate object id"):
            add_taxi(db, "x", 0.0)
        assert len(db) == 1
        assert db.object_ids() == []
        assert db.stationary_ids() == ["x"]

    def test_unknown_stationary(self, db):
        with pytest.raises(QueryError):
            db.stationary_position("ghost")

    def test_remove(self, db):
        db.insert_stationary_object("d1", "depot", Point(0, 0))
        db.remove_object("d1")
        assert len(db) == 0

    def test_stationary_in_range_query_is_must(self, db):
        db.insert_stationary_object("d1", "depot", Point(5.0, 0.5))
        add_taxi(db, "t1", 4.5)
        answer = db.range_query(Polygon.rectangle(4, -1, 6, 1), 0.0)
        assert "d1" in answer.must
        assert "t1" in answer.may

    def test_stationary_outside_excluded(self, db):
        db.insert_stationary_object("d1", "depot", Point(25.0, 0.0))
        answer = db.range_query(Polygon.rectangle(0, -1, 10, 1), 0.0)
        assert "d1" not in answer.may

    def test_stationary_in_within_distance(self, db):
        db.insert_stationary_object("d1", "depot", Point(5.0, 0.0))
        answer = db.within_distance(Point(5.0, 1.0), 2.0, 0.0)
        assert "d1" in answer.must


class TestAttributeFilters:
    def test_where_filter_on_range_query(self, db):
        add_taxi(db, "free-1", 2.0, free=True)
        add_taxi(db, "busy-1", 3.0, free=False)
        region = Polygon.rectangle(0, -1, 5, 1)
        answer = db.range_query(region, 0.0, where={"free": True})
        assert "free-1" in answer.must
        assert "busy-1" not in answer.may

    def test_where_filter_on_within_distance(self, db):
        add_taxi(db, "free-1", 2.0, free=True)
        add_taxi(db, "busy-1", 2.5, free=False)
        answer = db.within_distance(Point(2.0, 0.0), 1.0, 0.0,
                                    where={"free": True})
        assert answer.may == frozenset({"free-1"})

    def test_class_filter(self, db):
        add_taxi(db, "t1", 2.0)
        db.insert_stationary_object("d1", "depot", Point(2.5, 0.0))
        region = Polygon.rectangle(0, -1, 5, 1)
        taxis_only = db.range_query(region, 0.0, class_name="taxi")
        assert taxis_only.may == frozenset({"t1"})
        depots_only = db.range_query(region, 0.0, class_name="depot")
        assert depots_only.may == frozenset({"d1"})

    def test_where_applies_to_stationary(self, db):
        db.insert_stationary_object("fuel-depot", "depot", Point(2.0, 0.0),
                                    {"fuel": True})
        db.insert_stationary_object("dry-depot", "depot", Point(3.0, 0.0),
                                    {"fuel": False})
        region = Polygon.rectangle(0, -1, 5, 1)
        answer = db.range_query(region, 0.0, where={"fuel": True})
        assert answer.may == frozenset({"fuel-depot"})

    def test_no_filter_returns_everything(self, db):
        add_taxi(db, "t1", 2.0)
        db.insert_stationary_object("d1", "depot", Point(3.0, 0.0))
        region = Polygon.rectangle(0, -1, 5, 1)
        answer = db.range_query(region, 0.0)
        assert answer.may == frozenset({"t1", "d1"})


class TestCommunicationCost:
    def test_nan_update_cost_is_a_query_error(self, either_db):
        db = either_db
        add_taxi(db, "t1", 0.0)
        db.process_update(PositionUpdateMessage("t1", 1.0, 1.0, 0.0, 1.0))
        # make_policy refuses a NaN cost; a mutated record still must not
        # turn into a NaN total.
        db.record("t1").policy.update_cost = float("nan")
        with pytest.raises(QueryError, match="NaN"):
            db.communication_cost()
