"""Property-based tests for the geometry substrate (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import Box3D, Rect2D
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment
from tests.conftest import examples

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


@st.composite
def polylines(draw):
    """Polylines with 2-8 vertices and strictly positive length."""
    n = draw(st.integers(min_value=2, max_value=8))
    verts = [draw(points)]
    for _ in range(n - 1):
        # Force a minimum step so length is safely positive.
        dx = draw(st.floats(min_value=0.01, max_value=5.0))
        dy = draw(st.floats(min_value=-5.0, max_value=5.0))
        verts.append(Point(verts[-1].x + dx, verts[-1].y + dy))
    return Polyline(verts)


@st.composite
def boxes(draw):
    x0, y0, t0 = draw(coords), draw(coords), draw(coords)
    dx = draw(st.floats(min_value=0.0, max_value=50.0))
    dy = draw(st.floats(min_value=0.0, max_value=50.0))
    dt = draw(st.floats(min_value=0.0, max_value=50.0))
    return Box3D(x0, y0, t0, x0 + dx, y0 + dy, t0 + dt)


class TestPointProperties:
    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_lerp_stays_within_distance(self, a, b, f):
        m = a.lerp(b, f)
        assert a.distance_to(m) <= a.distance_to(b) + 1e-9


class TestSegmentProperties:
    @given(points, points, points)
    def test_closest_point_is_no_farther_than_endpoints(self, a, b, q):
        s = Segment(a, b)
        d = s.distance_to_point(q)
        assert d <= q.distance_to(a) + 1e-9
        assert d <= q.distance_to(b) + 1e-9

    @given(points, points)
    def test_intersects_self(self, a, b):
        s = Segment(a, b)
        assert s.intersects(s)

    @given(points, points, points, points)
    def test_intersection_symmetry(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert s1.intersects(s2) == s2.intersects(s1)

    @pytest.mark.xfail(strict=True, reason=(
        "known asymmetry (ROADMAP item 5): overlaps_collinear tests the "
        "separation against the first segment's unnormalised direction, so "
        "a short first segment passes for collinear where a long one does not"
    ))
    def test_intersection_symmetry_counterexample_found_by_hypothesis(self):
        long = Segment(Point(0.0, 0.0), Point(0.0, 1.0))
        short = Segment(Point(1e-5, 0.0), Point(1e-5, 1e-5))
        assert long.intersects(short) == short.intersects(long)


class TestPolylineProperties:
    @settings(max_examples=examples(50))
    @given(polylines(), st.floats(min_value=0.0, max_value=1.0))
    def test_point_at_roundtrip(self, line, frac):
        """point_at(s) projects back to arc length ~ s."""
        s = frac * line.length
        p = line.point_at(s)
        arc, dist = line.project(p)
        assert dist < 1e-6
        # The projected arc may differ if the polyline self-approaches,
        # but the projected point must coincide spatially.
        assert line.point_at(arc).distance_to(p) < 1e-6

    @settings(max_examples=examples(50))
    @given(polylines(), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_subline_length(self, line, f1, f2):
        """A subline's length equals the arc-length difference."""
        a, b = sorted((f1 * line.length, f2 * line.length))
        if b - a < 1e-6:
            return
        sub = line.subline(a, b)
        assert math.isclose(sub.length, b - a, rel_tol=1e-6, abs_tol=1e-6)

    @settings(max_examples=examples(50))
    @given(polylines())
    def test_reversed_preserves_length(self, line):
        assert math.isclose(line.reversed().length, line.length,
                            rel_tol=1e-9)


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a) and u.contains(b)

    @given(boxes(), boxes())
    def test_intersection_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), boxes())
    def test_union_volume_increase_nonnegative(self, a, b):
        assert a.union_volume_increase(b) >= -1e-9

    @given(boxes())
    def test_rect_footprint_consistent(self, box):
        rect = box.rect
        assert isinstance(rect, Rect2D)
        assert rect.min_x == box.min_x and rect.max_y == box.max_y
