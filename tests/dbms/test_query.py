"""Unit tests for repro.dbms.query (may/must classification)."""

import pytest

from repro.core.uncertainty import UncertaintyInterval
from repro.dbms.query import (
    Containment,
    RangeAnswer,
    classify_against_polygon,
    classify_polyline_against_polygon,
    classify_within_distance,
    distance_range_to_interval,
)
from repro.dbms.refine import RangeQuery, _exact_rect, _PolygonRegion
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from tests.conftest import region_outcomes


def interval(lower, upper, route_id="r-straight"):
    return UncertaintyInterval(route_id, 0, lower, upper)


class TestRangeAnswer:
    def test_must_subset_enforced(self):
        with pytest.raises(QueryError):
            RangeAnswer(
                time=0.0, may=frozenset({"a"}), must=frozenset({"a", "b"})
            )

    def test_uncertain_set(self):
        answer = RangeAnswer(
            time=0.0, may=frozenset({"a", "b"}), must=frozenset({"a"})
        )
        assert answer.uncertain == frozenset({"b"})


class TestClassifyPolygon:
    def test_must_when_fully_inside(self, straight_route_10):
        polygon = Polygon.rectangle(1.0, -1.0, 6.0, 1.0)
        outcome = classify_against_polygon(
            interval(2.0, 5.0), straight_route_10, polygon
        )
        assert outcome == Containment.MUST

    def test_may_when_straddling(self, straight_route_10):
        polygon = Polygon.rectangle(4.0, -1.0, 6.0, 1.0)
        outcome = classify_against_polygon(
            interval(2.0, 5.0), straight_route_10, polygon
        )
        assert outcome == Containment.MAY

    def test_out_when_disjoint(self, straight_route_10):
        polygon = Polygon.rectangle(7.0, -1.0, 9.0, 1.0)
        outcome = classify_against_polygon(
            interval(2.0, 5.0), straight_route_10, polygon
        )
        assert outcome == Containment.OUT

    def test_point_interval_inside(self, straight_route_10):
        polygon = Polygon.rectangle(1.0, -1.0, 6.0, 1.0)
        outcome = classify_against_polygon(
            interval(3.0, 3.0), straight_route_10, polygon
        )
        assert outcome == Containment.MUST

    def test_nonconvex_region_interval_through_notch(self, straight_route_10):
        """An interval whose endpoints are in G but that crosses a notch
        must be MAY, not MUST — Theorem 6 realised conservatively."""
        u_shape = Polygon.from_coordinates(
            [(0, -1), (10, -1), (10, 1), (6, 1), (6, 0.5), (4, 0.5),
             (4, 1), (0, 1)]
        )
        # Interval along y=0 from x=3 to x=7; the notch dips to y=0.5,
        # so the route at y=0 stays inside.  Build a deeper notch:
        deep_notch = Polygon.from_coordinates(
            [(0, -1), (10, -1), (10, 1), (6, 1), (6, -0.5), (4, -0.5),
             (4, 1), (0, 1)]
        )
        outcome = classify_against_polygon(
            interval(3.0, 7.0), straight_route_10, deep_notch
        )
        assert outcome == Containment.MAY
        outcome2 = classify_against_polygon(
            interval(3.0, 7.0), straight_route_10, u_shape
        )
        assert outcome2 == Containment.MUST


class TestRectangleScreens:
    """A polygon takes the refine stage's rectangle screens only when
    their answers are the exact classifier's."""

    SEGMENT = Polyline.from_coordinates([(0.45, 0.1), (0.55, 0.1)])

    def screened(self, polygon, count):
        region = _PolygonRegion(None, RangeQuery(polygon, 0.0), 0)
        return region_outcomes(region, [self.SEGMENT] * count)

    @pytest.mark.parametrize("count", [1, 8])
    def test_a_bow_tie_on_the_unit_squares_corners_is_not_a_rectangle(
            self, count):
        # The two triangles meet at (0.5, 0.5); the segment runs below
        # it, through the gap between them.
        bow_tie = Polygon.from_coordinates([(0, 0), (1, 1), (1, 0), (0, 1)])
        assert _exact_rect(bow_tie) is None
        exact = classify_polyline_against_polygon(self.SEGMENT, bow_tie)
        assert exact == Containment.OUT
        assert self.screened(bow_tie, count) == [exact] * count

    def test_an_infinite_side_is_left_to_the_exact_classifier(self):
        # Ray casting turns an infinite edge into a NaN crossing, so the
        # classifier's answer is not the closed-bounds one.
        strip = Polygon.from_coordinates(
            [(0, 0), (float("inf"), 0), (float("inf"), 1), (0, 1)])
        assert _exact_rect(strip) is None
        exact = classify_polyline_against_polygon(self.SEGMENT, strip)
        assert self.screened(strip, 1) == [exact]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0),
                                       (2, 3, 0, 1)])
    def test_a_rectangle_in_ring_order_is_one(self, order):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        polygon = Polygon.from_coordinates([corners[i] for i in order])
        assert _exact_rect(polygon) == polygon.bounding_rect
        assert self.screened(polygon, 1) == [Containment.MUST]


class TestWithinDistance:
    def test_distance_range(self, straight_route_10):
        center = Point(3.0, 4.0)
        minimum, maximum = distance_range_to_interval(
            center, interval(0.0, 6.0), straight_route_10
        )
        assert minimum == pytest.approx(4.0)
        assert maximum == pytest.approx(5.0)

    def test_must_when_entirely_within_radius(self, straight_route_10):
        outcome = classify_within_distance(
            Point(3.0, 0.0), 2.0, interval(2.0, 4.0), straight_route_10
        )
        assert outcome == Containment.MUST

    def test_may_when_partially_within(self, straight_route_10):
        outcome = classify_within_distance(
            Point(3.0, 0.0), 2.0, interval(2.0, 8.0), straight_route_10
        )
        assert outcome == Containment.MAY

    def test_out_when_beyond(self, straight_route_10):
        outcome = classify_within_distance(
            Point(0.0, 5.0), 1.0, interval(8.0, 9.0), straight_route_10
        )
        assert outcome == Containment.OUT

    def test_negative_radius_rejected(self, straight_route_10):
        with pytest.raises(QueryError):
            classify_within_distance(
                Point(0.0, 0.0), -1.0, interval(0.0, 1.0), straight_route_10
            )
