"""Unit tests for repro.geometry.polyline."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import EPSILON, Point
from repro.geometry.polyline import Polyline, polyline_through


class TestConstruction:
    def test_needs_two_vertices(self):
        with pytest.raises(GeometryError):
            Polyline([Point(0, 0)])

    def test_zero_length_rejected(self):
        with pytest.raises(GeometryError):
            Polyline([Point(1, 1), Point(1, 1)])

    def test_from_coordinates(self):
        p = Polyline.from_coordinates([(0, 0), (1, 0)])
        assert p.length == 1.0

    def test_convenience_constructor(self):
        p = polyline_through([(0, 0), (3, 4)])
        assert p.length == 5.0


class TestArcLength:
    def test_length_l_shape(self, l_shaped):
        assert l_shaped.length == 7.0

    def test_point_at_on_first_segment(self, l_shaped):
        assert l_shaped.point_at(1.5) == Point(1.5, 0.0)

    def test_point_at_vertex(self, l_shaped):
        assert l_shaped.point_at(3.0) == Point(3.0, 0.0)

    def test_point_at_on_second_segment(self, l_shaped):
        assert l_shaped.point_at(5.0).almost_equal(Point(3.0, 2.0))

    def test_point_at_clamps(self, l_shaped):
        assert l_shaped.point_at(-1.0) == l_shaped.start
        assert l_shaped.point_at(100.0) == l_shaped.end

    def test_start_end(self, l_shaped):
        assert l_shaped.start == Point(0, 0)
        assert l_shaped.end == Point(3, 4)


class TestProjection:
    def test_project_onto_segment(self, l_shaped):
        arc, dist = l_shaped.project(Point(1.0, 2.0))
        assert arc == pytest.approx(1.0)
        assert dist == pytest.approx(2.0)

    def test_project_prefers_closest_segment(self, l_shaped):
        arc, dist = l_shaped.project(Point(3.5, 3.0))
        assert arc == pytest.approx(6.0)
        assert dist == pytest.approx(0.5)

    def test_arc_length_of_on_route_point(self, l_shaped):
        assert l_shaped.arc_length_of(Point(3.0, 2.5)) == pytest.approx(5.5)

    def test_arc_length_of_off_route_raises(self, l_shaped):
        with pytest.raises(GeometryError):
            l_shaped.arc_length_of(Point(10.0, 10.0))

    def test_route_distance(self, l_shaped):
        d = l_shaped.route_distance(Point(1.0, 0.0), Point(3.0, 2.0))
        assert d == pytest.approx(4.0)

    def test_route_distance_is_symmetric(self, l_shaped):
        a, b = Point(0.5, 0.0), Point(3.0, 1.0)
        assert l_shaped.route_distance(a, b) == l_shaped.route_distance(b, a)


class TestSubline:
    def test_within_one_segment(self, l_shaped):
        sub = l_shaped.subline(0.5, 2.5)
        assert sub.length == pytest.approx(2.0)
        assert sub.start == Point(0.5, 0.0)
        assert sub.end == Point(2.5, 0.0)

    def test_across_vertex(self, l_shaped):
        sub = l_shaped.subline(2.0, 5.0)
        assert sub.length == pytest.approx(3.0)
        assert len(sub.vertices) == 3  # includes the corner

    def test_order_insensitive(self, l_shaped):
        a = l_shaped.subline(1.0, 4.0)
        b = l_shaped.subline(4.0, 1.0)
        assert a.start == b.start and a.end == b.end

    def test_degenerate_interval_returns_stub(self, l_shaped):
        sub = l_shaped.subline(2.0, 2.0)
        assert sub.length > 0.0
        assert sub.start.almost_equal(Point(2.0, 0.0), tolerance=1e-6)

    def test_degenerate_at_route_end(self, l_shaped):
        sub = l_shaped.subline(7.0, 7.0)
        assert sub.length > 0.0

    def test_clamped_to_route(self, l_shaped):
        sub = l_shaped.subline(-5.0, 100.0)
        assert sub.length == pytest.approx(7.0)

    @pytest.mark.parametrize("coords, lo, hi", [
        # Both ends dedup against a corner approached in the -x
        # direction: the old 1e-9 stub landed within EPSILON of the start
        # and the constructor raised "a polyline must have positive
        # length".
        ([(3, 0), (0, 0), (0, 3)], 3 - 0.9e-9, 3 + 0.8e-9),
        # Found by the explore profile: no corner needed, a diagonal
        # heading -x whose two ends agree per coordinate.
        ([(1, 0), (0, 1)], 1.0, 1.000000001),
    ])
    def test_interval_a_hair_wider_than_epsilon(self, coords, lo, hi):
        line = polyline_through(coords)
        assert hi - lo > EPSILON
        sub = line.subline(lo, hi)
        assert sub.start == line.point_at(lo)
        assert len(sub.vertices) == 2 and 50 * EPSILON < sub.length < 2e-7
        rect = line.subline_rect(lo, hi)
        assert rect == sub.bounding_rect() == line.subline_rect(hi, lo)

    def test_one_corner_stub_kept_where_it_was_valid(self):
        """Heading +x the old 1e-9 stub was long enough; it stays."""
        line = polyline_through([(0, 3), (0, 0), (3, 0)])
        sub = line.subline(3 - 0.9e-9, 3 + 0.8e-9)
        assert sub.end == Point(line.point_at(3 + 0.8e-9).x + 1e-9, 0.0)
        assert EPSILON < sub.length < 3 * EPSILON


class TestMisc:
    def test_segments_count(self, l_shaped):
        assert len(l_shaped.segments()) == 2

    def test_bounding_rect(self, l_shaped):
        r = l_shaped.bounding_rect()
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (0, 0, 3, 4)

    def test_resampled_spacing(self, straight_line):
        points = straight_line.resampled(2.5)
        assert points[0] == straight_line.start
        assert points[-1] == straight_line.end
        assert len(points) == 5

    def test_resampled_bad_spacing(self, straight_line):
        with pytest.raises(GeometryError):
            straight_line.resampled(0.0)

    def test_reversed(self, l_shaped):
        rev = l_shaped.reversed()
        assert rev.start == l_shaped.end
        assert rev.length == l_shaped.length

    def test_len_and_repr(self, l_shaped):
        assert len(l_shaped) == 3
        assert "Polyline" in repr(l_shaped)


class TestTangent:
    def test_along_first_segment(self, l_shaped):
        t = l_shaped.tangent_at(1.0)
        assert t.x == pytest.approx(1.0) and t.y == pytest.approx(0.0)

    def test_after_corner(self, l_shaped):
        t = l_shaped.tangent_at(5.0)
        assert t.x == pytest.approx(0.0) and t.y == pytest.approx(1.0)

    def test_at_corner_uses_outgoing_segment(self, l_shaped):
        t = l_shaped.tangent_at(3.0)
        assert t.y == pytest.approx(1.0)

    def test_unit_length(self, l_shaped):
        for s in (0.0, 1.5, 3.0, 5.5, 7.0):
            t = l_shaped.tangent_at(s)
            assert (t.x ** 2 + t.y ** 2) ** 0.5 == pytest.approx(1.0)

    def test_clamped_outside_domain(self, l_shaped):
        before = l_shaped.tangent_at(-5.0)
        assert before.x == pytest.approx(1.0)
        after = l_shaped.tangent_at(100.0)
        assert after.y == pytest.approx(1.0)
