"""Unit tests for repro.geometry.segment."""

import math

from repro.dbms.query import Containment, classify_polyline_within_distance
from repro.geometry import kernels
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


def seg(x0, y0, x1, y1):
    return Segment(Point(x0, y0), Point(x1, y1))


class TestBasics:
    def test_length(self):
        assert seg(0, 0, 3, 4).length == 5.0

    def test_degenerate(self):
        assert seg(1, 1, 1, 1).is_degenerate
        assert not seg(0, 0, 1, 0).is_degenerate

    def test_point_at_fraction(self):
        s = seg(0, 0, 10, 0)
        assert s.point_at_fraction(0.3) == Point(3.0, 0.0)

    def test_point_at_distance(self):
        s = seg(0, 0, 3, 4)
        assert s.point_at_distance(2.5).almost_equal(Point(1.5, 2.0))

    def test_point_at_distance_degenerate(self):
        s = seg(2, 2, 2, 2)
        assert s.point_at_distance(5.0) == Point(2.0, 2.0)

    def test_midpoint(self):
        assert seg(0, 0, 2, 2).midpoint() == Point(1.0, 1.0)

    def test_heading(self):
        assert seg(0, 0, 1, 0).heading() == 0.0
        assert abs(seg(0, 0, 0, 1).heading() - math.pi / 2) < 1e-12
        assert seg(0, 0, 0, 0).heading() == 0.0


class TestProjection:
    def test_project_interior(self):
        s = seg(0, 0, 10, 0)
        assert s.project_fraction(Point(4.0, 3.0)) == 0.4
        assert s.closest_point(Point(4.0, 3.0)) == Point(4.0, 0.0)

    def test_project_clamps_before_start(self):
        s = seg(0, 0, 10, 0)
        assert s.project_fraction(Point(-5.0, 1.0)) == 0.0

    def test_project_clamps_after_end(self):
        s = seg(0, 0, 10, 0)
        assert s.project_fraction(Point(15.0, 1.0)) == 1.0

    def test_distance_to_point_interior(self):
        assert seg(0, 0, 10, 0).distance_to_point(Point(5.0, 2.0)) == 2.0

    def test_distance_to_point_beyond_endpoint(self):
        assert seg(0, 0, 10, 0).distance_to_point(Point(13.0, 4.0)) == 5.0

    def test_degenerate_projection(self):
        s = seg(1, 1, 1, 1)
        assert s.project_fraction(Point(5.0, 5.0)) == 0.0
        assert s.distance_to_point(Point(4.0, 5.0)) == 5.0

    def test_point_like_segment_projects_to_its_nearer_end(self):
        """A segment no longer than EPSILON is measured from its nearer
        end, the start on a tie."""
        s = seg(1.0 + 3e-10, 0.0, 1.0 - 5e-10, 0.0)
        assert s.project_fraction(Point(0.0, 0.0)) == 1.0
        assert s.project_fraction(Point(2.0, 0.0)) == 0.0
        assert s.project_fraction(Point(1.0 - 1e-10, 5.0)) == 0.0
        assert s.distance_to_point(Point(0.0, 0.0)) < 1.0

    def test_a_chain_ending_inside_on_a_point_like_segment_may_be_within(
            self):
        """The chain reaches 5e-10 inside the unit disc on a last segment
        shorter than EPSILON: it may be within the radius (it was OUT
        while such a segment was measured from its first vertex)."""
        chain = Polyline.from_coordinates(
            [(1.0 + 3e-10, 5.0), (1.0 + 3e-10, 0.0), (1.0 - 5e-10, 0.0)])
        assert kernels.chain_within_distance(
            0.0, 0.0, 1.0, chain.xs, chain.ys) == (True, False)
        assert classify_polyline_within_distance(
            Point(0.0, 0.0), 1.0, chain) == Containment.MAY


class TestIntersection:
    def test_crossing_segments(self):
        a = seg(0, 0, 2, 2)
        b = seg(0, 2, 2, 0)
        assert a.intersects(b)
        hit = a.intersection_point(b)
        assert hit is not None and hit.almost_equal(Point(1.0, 1.0))

    def test_touching_at_endpoint(self):
        a = seg(0, 0, 1, 0)
        b = seg(1, 0, 1, 5)
        assert a.intersects(b)

    def test_parallel_disjoint(self):
        a = seg(0, 0, 1, 0)
        b = seg(0, 1, 1, 1)
        assert not a.intersects(b)
        assert a.intersection_point(b) is None

    def test_collinear_overlapping(self):
        a = seg(0, 0, 5, 0)
        b = seg(3, 0, 8, 0)
        assert a.intersects(b)
        # No unique intersection point for overlapping collinear segments.
        assert a.intersection_point(b) is None

    def test_collinear_disjoint(self):
        a = seg(0, 0, 1, 0)
        b = seg(2, 0, 3, 0)
        assert not a.intersects(b)

    def test_skew_nonintersecting(self):
        a = seg(0, 0, 1, 1)
        b = seg(2, 0, 3, -1)
        assert not a.intersects(b)

    def test_vertical_collinear_overlap(self):
        a = seg(1, 0, 1, 4)
        b = seg(1, 2, 1, 9)
        assert a.intersects(b)


class TestSegmentToSegmentDistance:
    def test_intersecting_is_zero(self):
        assert seg(0, 0, 2, 2).distance_to_segment(seg(0, 2, 2, 0)) == 0.0

    def test_parallel_gap(self):
        assert seg(0, 0, 4, 0).distance_to_segment(seg(0, 3, 4, 3)) == 3.0

    def test_collinear_gap(self):
        assert seg(0, 0, 1, 0).distance_to_segment(seg(3, 0, 5, 0)) == 2.0

    def test_endpoint_to_interior(self):
        assert seg(0, 0, 4, 0).distance_to_segment(seg(2, 1, 2, 5)) == 1.0

    def test_symmetry(self):
        a, b = seg(0, 0, 1, 1), seg(5, 0, 6, -2)
        assert a.distance_to_segment(b) == b.distance_to_segment(a)

    def test_degenerate_segments(self):
        point_seg = seg(3, 4, 3, 4)
        assert seg(0, 0, 3, 0).distance_to_segment(point_seg) == 4.0
