"""Differential test: float kernels against the ``Point``-algebra oracle.

Every boolean, returned point and distance produced by
:mod:`repro.geometry.kernels` — called directly on raw floats and
through the ``Segment`` / ``Polygon`` / ``Polyline`` /
``distance_range_to_polyline`` wrappers — must be *identical* to what
``tests/oracle/geometry_reference.py`` (the pre-kernel bodies, frozen)
computes.  "Identical" is checked on ``repr``, which is stricter than
``==``: it also tells ``-0.0`` from ``0.0``.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.query import distance_range_to_polyline
from repro.geometry import kernels
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment
from tests.oracle import geometry_reference as ref


def same(actual, expected) -> None:
    assert repr(actual) == repr(expected)


def as_tuple(point):
    return None if point is None else (point.x, point.y)


def check_segment_pair(a: Segment, b: Segment) -> None:
    coords = (a.start.x, a.start.y, a.end.x, a.end.y,
              b.start.x, b.start.y, b.end.x, b.end.y)
    expected_hit = ref.intersection_point(a, b)
    same(a.intersection_point(b), expected_hit)
    same(kernels.intersection_point(*coords), as_tuple(expected_hit))
    expected = ref.overlaps_collinear(a, b)
    same(a._overlaps_collinear(b), expected)
    same(kernels.overlaps_collinear(*coords), expected)
    expected = ref.intersects(a, b)
    same(a.intersects(b), expected)
    same(kernels.segments_intersect(*coords), expected)


def check_segment_point(segment: Segment, point: Point) -> None:
    coords = (segment.start.x, segment.start.y, segment.end.x,
              segment.end.y, point.x, point.y)
    expected = ref.project_fraction(segment, point)
    same(segment.project_fraction(point), expected)
    same(kernels.project_fraction(*coords), expected)
    same(segment.closest_point(point), ref.closest_point(segment, point))
    expected = ref.distance_to_point(segment, point)
    same(segment.distance_to_point(point), expected)
    same(kernels.distance_to_point(*coords), expected)


def check_polygon_point(polygon: Polygon, point: Point) -> None:
    expected = ref.contains_point(polygon, point)
    same(polygon.contains_point(point), expected)
    same(kernels.ring_contains_point(polygon._edges, polygon._bounds,
                                     point.x, point.y), expected)


def check_polygon_segment(polygon: Polygon, segment: Segment) -> None:
    coords = (segment.start.x, segment.start.y, segment.end.x, segment.end.y)
    expected = ref.intersects_segment(polygon, segment)
    same(polygon.intersects_segment(segment), expected)
    same(kernels.ring_intersects_segment(polygon._edges, polygon._bounds,
                                         *coords), expected)
    expected = ref.contains_segment(polygon, segment)
    same(polygon.contains_segment(segment), expected)
    same(kernels.ring_contains_segment(polygon._edges, polygon._bounds,
                                       *coords), expected)


def check_polygon_polyline(polygon: Polygon, polyline: Polyline) -> None:
    expected = ref.intersects_polyline(polygon, polyline)
    same(polygon.intersects_polyline(polyline), expected)
    same(kernels.ring_intersects_chain(polygon._edges, polygon._bounds,
                                       polyline.xs, polyline.ys), expected)
    expected = ref.contains_polyline(polygon, polyline)
    same(polygon.contains_polyline(polyline), expected)
    same(kernels.ring_contains_chain(polygon._edges, polygon._bounds,
                                     polyline.xs, polyline.ys), expected)


def check_polyline_point(polyline: Polyline, point: Point) -> None:
    same(polyline.project(point), ref.project(polyline, point))
    same(polyline.bounding_rect(), ref.bounding_rect(polyline))
    expected = ref.distance_range_to_polyline(point, polyline)
    same(distance_range_to_polyline(point, polyline), expected)
    same(kernels.chain_distance_range(point.x, point.y, polyline.xs,
                                      polyline.ys), expected)


# ----------------------------------------------------------------------
# Hand-written adversarial table
# ----------------------------------------------------------------------

def seg(ax, ay, bx, by) -> Segment:
    return Segment(Point(ax, ay), Point(bx, by))


TINY = EPSILON / 2.0
JUST_OVER = EPSILON * 1.5

SEGMENTS = [
    seg(0.0, 0.0, 4.0, 0.0),
    seg(4.0, 0.0, 0.0, 0.0),             # reversed
    seg(2.0, 0.0, 6.0, 0.0),             # collinear, overlapping
    seg(4.0, 0.0, 8.0, 0.0),             # collinear, touching at an endpoint
    seg(4.0 + TINY, 0.0, 8.0, 0.0),      # collinear, gap within EPSILON
    seg(4.0 + JUST_OVER, 0.0, 8.0, 0.0),  # collinear, gap just beyond it
    seg(5.0, 0.0, 8.0, 0.0),             # collinear, disjoint
    seg(0.0, TINY, 4.0, TINY),           # parallel within EPSILON
    seg(0.0, JUST_OVER, 4.0, JUST_OVER),  # parallel just beyond it
    seg(2.0, -1.0, 2.0, 1.0),            # proper crossing
    seg(2.0, 0.0, 2.0, 3.0),             # endpoint on the other's interior
    seg(4.0, 0.0, 4.0, 3.0),             # endpoint on endpoint
    seg(2.0, TINY, 2.0, 3.0),            # endpoint within EPSILON of it
    seg(2.0, JUST_OVER, 2.0, 3.0),       # endpoint just beyond EPSILON
    seg(0.0, 0.0, 0.0, 4.0),             # vertical (y is the major axis)
    seg(0.0, 2.0, 0.0, 6.0),
    seg(1.0, 1.0, 1.0, 1.0),             # zero length, off the others
    seg(2.0, 0.0, 2.0, 0.0),             # zero length, on a segment
    seg(2.0, 0.0, 2.0 + TINY, 0.0),      # numerically zero length
    seg(-0.0, -0.0, 4.0, -0.0),          # signed zeros
    seg(0.0, 0.0, -0.0, 4.0),
    seg(-3.0, -3.0, 3.0, 3.0),           # diagonal: |dx| == |dy| tie
    seg(-1.0, -1.0, 1.0, 1.0),
    seg(1e-7, 1e-7, 2e-7, 1e-7),         # subline's empty-interval stub
]

POINTS = [
    Point(2.0, 0.0), Point(2.0, TINY), Point(2.0, JUST_OVER),
    Point(2.0, -TINY), Point(0.0, 0.0), Point(-0.0, -0.0),
    Point(4.0, 0.0), Point(4.0 + TINY, 0.0), Point(5.0, 0.0),
    Point(-1.0, 0.0), Point(2.0, 2.0), Point(1.0, 1.0),
    Point(0.0, 2.0), Point(3.0, 3.0), Point(1e-7, 1e-7),
]

SQUARE = Polygon.rectangle(0.0, 0.0, 4.0, 4.0)
SQUARE_SIGNED_ZERO = Polygon.from_coordinates(
    [(-0.0, -0.0), (4.0, -0.0), (4.0, 4.0), (-0.0, 4.0)])
#: Non-convex U: a chord between the towers leaves and re-enters.
U_SHAPE = Polygon.from_coordinates(
    [(0, 0), (5, 0), (5, 4), (4, 4), (4, 1), (1, 1), (1, 4), (0, 4)])
#: A vertex at (2, 2) sits exactly on the even-odd ray of points with
#: ``y == 2`` to its left; clockwise orientation.
DIAMOND = Polygon.from_coordinates([(0, 2), (2, 4), (4, 2), (2, 0)])
#: Concave notch whose apex (2, 2) lies on rays cast from x < 2.
NOTCHED = Polygon.from_coordinates(
    [(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)])
TRIANGLE = Polygon.from_coordinates([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
POLYGONS = [SQUARE, SQUARE_SIGNED_ZERO, U_SHAPE, DIAMOND, NOTCHED, TRIANGLE]

POLYGON_POINTS = POINTS + [
    Point(-TINY, 2.0), Point(-JUST_OVER, 2.0),     # beside the left edge
    Point(4.0 + TINY, 2.0), Point(4.0, 4.0 + TINY),  # outside the bbox
    Point(TINY, TINY), Point(1.0, 2.0), Point(0.5, 2.0),
    Point(2.0, 2.0), Point(2.0 - TINY, 2.0), Point(2.0, 2.0 + JUST_OVER),
    Point(4.5, 2.0), Point(0.5, 3.0), Point(2.5, 3.0), Point(4.5, 3.0),
    Point(1.0, 1.0 + TINY), Point(1.0 + TINY, 2.0), Point(2.0, 4.0),
]

POLYGON_SEGMENTS = SEGMENTS + [
    seg(0.5, 3.0, 4.5, 3.0),     # U chord: inside, outside, inside again
    seg(0.5, 0.5, 4.5, 0.5),     # U chord through the joined bottom
    seg(0.5, 1.0, 4.5, 1.0),     # along the U's inner floor (collinear)
    seg(1.0, 1.0, 4.0, 1.0),     # exactly that floor edge
    seg(0.0, 0.0, 4.0, 4.0),     # square diagonal, corner to corner
    seg(0.0, 2.0, 4.0, 2.0),     # through DIAMOND/NOTCHED's vertices
    seg(1.0, 3.0, 3.0, 3.0),     # across NOTCHED's notch
    seg(-1.0, 2.0, 5.0, 2.0),    # pierces every polygon
    seg(-2.0, -2.0, -1.0, -1.0),  # misses every bbox
    seg(4.0, 1.0, 4.0, 3.0),     # on the square's right edge
    seg(4.0 + TINY, 1.0, 4.0 + TINY, 3.0),
    seg(2.0, 2.0, 2.0, 2.0),     # zero length, interior / on a vertex
    seg(3.0, 3.0, 3.0 + 1e-7, 3.0),  # stub inside
]


def stub_polylines() -> list[Polyline]:
    """What ``Polyline.subline`` emits, including for empty intervals."""
    route = Polyline.from_coordinates(
        [(0.5, 3.0), (2.5, 3.0), (2.5, 0.5), (4.5, 0.5), (4.5, 3.5)])
    cuts = [0.0, 1.0, 2.0, 4.5, route.length - 1.0, route.length]
    out = [route, route.reversed()]
    for lo, hi in itertools.combinations_with_replacement(cuts, 2):
        out.append(route.subline(lo, hi))      # lo == hi: a 1e-7 stub
    out.append(Polyline.from_coordinates([(-0.0, 2.0), (4.0, 2.0)]))
    out.append(Polyline.from_coordinates([(0.0, 0.0), (0.0, 4.0), (4.0, 4.0)]))
    out.append(Polyline.from_coordinates([(-3.0, 2.0), (-1.0, 2.0)]))
    return out


POLYLINES = stub_polylines()


class TestAdversarialTable:
    @pytest.mark.parametrize("a", SEGMENTS)
    def test_segment_pairs(self, a):
        for b in SEGMENTS:
            check_segment_pair(a, b)

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_segment_points(self, segment):
        for point in POINTS:
            check_segment_point(segment, point)

    @pytest.mark.parametrize("polygon", POLYGONS)
    def test_polygon_points(self, polygon):
        for point in POLYGON_POINTS:
            check_polygon_point(polygon, point)

    @pytest.mark.parametrize("polygon", POLYGONS)
    def test_polygon_segments(self, polygon):
        for segment in POLYGON_SEGMENTS:
            check_polygon_segment(polygon, segment)

    @pytest.mark.parametrize("polygon", POLYGONS)
    def test_polygon_polylines(self, polygon):
        for polyline in POLYLINES:
            check_polygon_polyline(polygon, polyline)

    def test_polyline_points(self):
        for polyline in POLYLINES:
            for point in POLYGON_POINTS:
                check_polyline_point(polyline, point)

    def test_table_exercises_both_outcomes(self):
        """Guard against a table that only ever sees one branch."""
        chord = seg(0.5, 3.0, 4.5, 3.0)
        assert U_SHAPE.intersects_segment(chord)
        assert not U_SHAPE.contains_segment(chord)
        assert U_SHAPE.contains_segment(seg(0.5, 0.5, 4.5, 0.5))
        assert SEGMENTS[0]._overlaps_collinear(SEGMENTS[4])
        assert not SEGMENTS[0]._overlaps_collinear(SEGMENTS[5])
        assert SQUARE.contains_point(Point(2.0, -TINY)) is False  # off bbox
        assert SQUARE.contains_point(Point(TINY, TINY))
        assert DIAMOND.contains_point(Point(1.0, 2.0))
        outcomes = {
            (p.intersects_polyline(line), p.contains_polyline(line))
            for p in POLYGONS for line in POLYLINES
        }
        assert outcomes == {(False, False), (True, False), (True, True)}


# ----------------------------------------------------------------------
# Hypothesis
# ----------------------------------------------------------------------

# A coarse lattice plus free floats: lattice draws make collinear,
# touching and on-edge configurations common instead of measure-zero.
lattice = st.sampled_from(
    [-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 2.0 + TINY, 2.0 + JUST_OVER, 1e-7])
free = st.floats(min_value=-6.0, max_value=6.0,
                 allow_nan=False, allow_infinity=False)
coordinate = st.one_of(lattice, free)
points = st.builds(Point, coordinate, coordinate)
segments = st.builds(Segment, points, points)


@st.composite
def polygons(draw):
    """Star-shaped (hence simple) polygons, plus the fixed table."""
    if draw(st.booleans()):
        return draw(st.sampled_from(POLYGONS))
    count = draw(st.integers(min_value=3, max_value=8))
    cx, cy = draw(free), draw(free)
    angles = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=6.28), min_size=count,
        max_size=count, unique=True)))
    verts = []
    for angle in angles:
        radius = draw(st.floats(min_value=0.5, max_value=4.0))
        verts.append(Point(cx + radius * math.cos(angle),
                           cy + radius * math.sin(angle)))
    try:
        return Polygon(verts)
    except Exception:
        return draw(st.sampled_from(POLYGONS))


@st.composite
def polylines(draw):
    verts = draw(st.lists(points, min_size=2, max_size=6))
    try:
        return Polyline(verts)
    except Exception:
        return draw(st.sampled_from(POLYLINES))


class TestHypothesis:
    @settings(max_examples=300, deadline=None)
    @given(segments, segments)
    def test_segment_pairs(self, a, b):
        check_segment_pair(a, b)

    @settings(max_examples=300, deadline=None)
    @given(segments, points)
    def test_segment_points(self, segment, point):
        check_segment_point(segment, point)

    @settings(max_examples=300, deadline=None)
    @given(polygons(), points)
    def test_polygon_points(self, polygon, point):
        check_polygon_point(polygon, point)

    @settings(max_examples=300, deadline=None)
    @given(polygons(), segments)
    def test_polygon_segments(self, polygon, segment):
        check_polygon_segment(polygon, segment)

    @settings(max_examples=200, deadline=None)
    @given(polygons(), polylines())
    def test_polygon_polylines(self, polygon, polyline):
        check_polygon_polyline(polygon, polyline)

    @settings(max_examples=200, deadline=None)
    @given(polylines(), points)
    def test_polyline_points(self, polyline, point):
        check_polyline_point(polyline, point)
