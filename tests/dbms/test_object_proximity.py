"""Unit tests for moving-to-moving proximity queries."""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import distance_range_between_intervals
from repro.dbms.schema import Mobility, ObjectClass, SpatialKind
from repro.core.uncertainty import UncertaintyInterval
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.routes.generators import straight_route
from tests.oracle import query_reference as reference

C = 5.0


@pytest.fixture
def db():
    database = MovingObjectDatabase()
    database.schema.define_mobile_point_class("truck")
    database.schema.define(
        ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY)
    )
    database.register_route(straight_route(100.0, "h1"))
    return database


def add_truck(db, object_id, x, bound=0.5, speed=0.0):
    db.insert_moving_object(
        object_id, "truck", "h1", 0.0, Point(x, 0.0), 0, speed,
        make_policy("fixed-threshold", C, bound=bound), max_speed=1.0,
    )


class TestDistanceRangeBetweenIntervals:
    def test_same_route_disjoint(self, db):
        route = db.routes.get("h1")
        a = UncertaintyInterval("h1", 0, 2.0, 4.0)
        b = UncertaintyInterval("h1", 0, 10.0, 12.0)
        minimum, maximum = distance_range_between_intervals(a, route, b, route)
        assert minimum == pytest.approx(6.0)
        assert maximum == pytest.approx(10.0)

    def test_overlapping_intervals_touch(self, db):
        route = db.routes.get("h1")
        a = UncertaintyInterval("h1", 0, 2.0, 6.0)
        b = UncertaintyInterval("h1", 0, 5.0, 9.0)
        minimum, maximum = distance_range_between_intervals(a, route, b, route)
        assert minimum == 0.0
        assert maximum == pytest.approx(7.0)


class TestWithinDistanceOfObject:
    def test_basic_tiers(self, db):
        add_truck(db, "anchor", 10.0)
        add_truck(db, "near", 11.0)      # centre gap 1; range [0, 2]
        add_truck(db, "mid", 14.0)       # centre gap 4; range [3, 5]
        add_truck(db, "far", 40.0)
        answer = db.within_distance_of_object("anchor", 5.0, 1.0)
        assert "near" in answer.must     # max distance 2 <= 5
        assert "mid" in answer.may       # min 3 <= 5 but max 5 <= 5 -> must!
        assert "far" not in answer.may
        assert "anchor" not in answer.may

    def test_anchor_uncertainty_widens_answer(self, db):
        """A candidate beyond the radius of the anchor's *centre* can
        still be a 'may' thanks to the anchor's own uncertainty."""
        add_truck(db, "anchor", 10.0, bound=2.0)
        add_truck(db, "edge", 17.0, bound=0.5)   # centre gap 7
        # At t=3 the fast bounds saturate (speed-0 objects have no slow
        # deviation): anchor spans [10, 12], edge spans [17, 17.5].
        answer = db.within_distance_of_object("anchor", 5.0, 3.0)
        # min distance = 17 - 12 = 5 <= 5: may; max = 7.5 > 5: not must.
        assert "edge" in answer.may
        assert "edge" not in answer.must

    def test_stationary_candidates_included(self, db):
        add_truck(db, "anchor", 10.0)
        db.insert_stationary_object("d1", "depot", Point(12.0, 0.0))
        answer = db.within_distance_of_object("anchor", 5.0, 1.0)
        assert "d1" in answer.must

    def test_class_filter(self, db):
        add_truck(db, "anchor", 10.0)
        add_truck(db, "other", 11.0)
        db.insert_stationary_object("d1", "depot", Point(12.0, 0.0))
        answer = db.within_distance_of_object(
            "anchor", 5.0, 1.0, class_name="truck"
        )
        assert answer.may == frozenset({"other"})

    def test_unknown_anchor(self, db):
        with pytest.raises(QueryError):
            db.within_distance_of_object("ghost", 1.0, 0.0)

    def test_negative_radius(self, db):
        add_truck(db, "anchor", 10.0)
        with pytest.raises(QueryError):
            db.within_distance_of_object("anchor", -1.0, 0.0)

    @pytest.mark.parametrize("selection", [
        {}, {"class_name": "truck"}, {"class_name": "depot"}])
    def test_equals_the_cache_free_reference(self, db, selection):
        for x in (10.0, 11.0, 14.0, 17.0, 40.0):
            add_truck(db, f"t{x}", x, bound=0.5 + x / 20.0, speed=0.3)
        db.insert_stationary_object("d1", "depot", Point(12.0, 0.0))
        db.insert_stationary_object("d2", "depot", Point(30.0, 4.0))
        # Each (anchor, t) repeats: later radii are answered from cache.
        for anchor in ("t10.0", "t17.0"):
            for t in (0.0, 1.0, 3.0):
                for radius in (0.0, 1.5, 5.0, 30.0, float("inf")):
                    assert db.within_distance_of_object(
                        anchor, radius, t, **selection
                    ) == reference.within_distance_of_object(
                        db, anchor, radius, t, **selection)
