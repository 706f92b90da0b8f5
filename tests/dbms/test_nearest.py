"""Unit tests for the nearest-neighbour query."""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef, Mobility, ObjectClass, SpatialKind
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.routes.generators import straight_route
from tests.oracle import query_reference as reference

C = 5.0


@pytest.fixture
def db():
    database = MovingObjectDatabase()
    database.schema.define_mobile_point_class(
        "taxi", (AttributeDef("free", "bool"),)
    )
    database.schema.define(
        ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY)
    )
    database.register_route(straight_route(50.0, "h1"))
    for i, x in enumerate([2.0, 10.0, 30.0]):
        database.insert_moving_object(
            f"taxi-{i}", "taxi", "h1", 0.0, Point(x, 0.0), 0, 0.0,
            make_policy("fixed-threshold", C, bound=0.5), max_speed=1.0,
            attributes={"free": i != 1},
        )
    return database


class TestNearest:
    def test_ordered_by_optimistic_distance(self, db):
        answers = db.nearest(Point(0.0, 0.0), 3, 1.0)
        assert [a.object_id for a in answers] == ["taxi-0", "taxi-1", "taxi-2"]
        minima = [a.min_distance for a in answers]
        assert minima == sorted(minima)

    def test_k_limits_results(self, db):
        answers = db.nearest(Point(0.0, 0.0), 1, 1.0)
        assert len(answers) == 1
        assert answers[0].object_id == "taxi-0"

    def test_distance_bounds_bracket_truth(self, db):
        answers = db.nearest(Point(0.0, 0.0), 3, 1.0)
        # Objects are stationary at known points; bound width comes from
        # the fixed 0.5-mile trigger (deviation < 0.5 each side).
        first = answers[0]
        assert first.min_distance <= 2.0 <= first.max_distance
        assert first.max_distance - first.min_distance <= 1.0 + 1e-9

    def test_certainty_with_clear_separation(self, db):
        answers = db.nearest(Point(0.0, 0.0), 2, 1.0)
        # taxi-0 (at 2) is certainly closer than taxi-1 (at 10): its max
        # possible distance (2.5) is below taxi-1's min (9.5).
        assert answers[0].certain
        # taxi-1 is certainly closer than taxi-2 (at 30) too.
        assert answers[1].certain

    def test_uncertainty_with_overlap(self, db):
        # Two cabs close together: overlapping distance ranges cannot be
        # certain.
        db.insert_moving_object(
            "taxi-close", "taxi", "h1", 0.0, Point(2.3, 0.0), 0, 0.0,
            make_policy("fixed-threshold", C, bound=0.5), max_speed=1.0,
            attributes={"free": True},
        )
        answers = db.nearest(Point(0.0, 0.0), 2, 1.0)
        assert {a.object_id for a in answers} == {"taxi-0", "taxi-close"}
        assert not answers[0].certain

    def test_where_filter(self, db):
        answers = db.nearest(Point(0.0, 0.0), 3, 1.0, where={"free": True})
        assert [a.object_id for a in answers] == ["taxi-0", "taxi-2"]

    def test_stationary_included_with_exact_distance(self, db):
        db.insert_stationary_object("d1", "depot", Point(1.0, 0.0))
        answers = db.nearest(Point(0.0, 0.0), 1, 1.0)
        assert answers[0].object_id == "d1"
        assert answers[0].min_distance == answers[0].max_distance == 1.0
        assert answers[0].certain

    def test_validation(self, db):
        with pytest.raises(QueryError):
            db.nearest(Point(0, 0), 0, 1.0)

    @pytest.mark.parametrize("k", [1.5, 2.0, float("nan"), True, "3"])
    def test_a_non_integer_k_is_a_query_error(self, db, k):
        with pytest.raises(QueryError, match="k must be a positive integer"):
            db.nearest(Point(0, 0), k, 1.0)

    @pytest.mark.parametrize("selection", [
        {}, {"where": {"free": True}}, {"class_name": "depot"}])
    def test_equals_the_cache_free_reference(self, db, selection):
        db.insert_stationary_object("d1", "depot", Point(9.0, 2.0))
        for center in (Point(0.0, 0.0), Point(12.0, 1.0)):
            # Each t repeats: later calls are answered from cache.
            for t in (0.0, 1.0, 4.0):
                for k in (1, 2, 10):
                    assert db.nearest(
                        center, k, t, **selection
                    ) == reference.nearest(db, center, k, t, **selection)
