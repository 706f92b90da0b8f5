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

from repro.dbms.query import (
    Containment,
    classify_polyline_within_distance,
    distance_range_to_polyline,
)
from repro.geometry import kernels
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment
from tests.conftest import examples
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


# ----------------------------------------------------------------------
# The segment screens, probed at their decision boundary
# ----------------------------------------------------------------------
#
# ``ring_intersects_chain`` skips a segment that clears the ring's bounds
# by more than ``kernels.screen_margin``; ``ring_contains_chain`` and
# ``chain_within_distance`` have exact (resp. rounding-sized) screens.
# Chains are laid along each side of each polygon's bounds at offsets at,
# inside and beyond every tolerance in play, and every outcome is held to
# the screen-free oracle.

#: A 1e-6-mile edge on the top side: ``overlaps_collinear`` measures
#: offsets against the unnormalised edge, so parallel segments up to
#: ``EPSILON / 1e-6`` (a thousandth of a mile) above it still "touch".
SHORT_EDGE = Polygon.from_coordinates(
    [(0, 0), (4, 0), (4, 4), (2, 4), (2 - 1e-6, 4), (0, 4)])
#: A twenty-mile parcel: the margin's length terms are visible.
COUNTY = Polygon.from_coordinates([(0, 0), (20, 0), (20, 12), (0, 12)])
#: A million-mile edge: the margin outgrows the plane, the screen stands
#: down and every segment takes the exact test.
CONTINENT = Polygon.from_coordinates([(0, 0), (1e6, 0), (1e6, 1), (0, 1)])
SCREENED = POLYGONS + [SHORT_EDGE, COUNTY, CONTINENT]

#: Outward normals of the four sides of a bounding rectangle.
SIDES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
SHAPES = ["parallel", "touching", "corner", "stub"]
#: Offsets as multiples of (EPSILON, margin); negative ones are inside.
OFFSETS = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.5),
           (0.0, 1.0), (0.0, 2.0), (-0.5, 0.0), (-2.0, 0.0), (0.0, -1.0),
           (1.0, 1.0), (-1.0, 1.0)]


def side_frame(polygon: Polygon, normal):
    """``(base, corner, tangent, lead_in)`` of one side of the bounds.

    ``base`` is the side's midpoint, ``corner`` its end along
    ``tangent``.  Every probe chain starts with ``lead_in``: a mile out,
    along the whole side, then half a mile *behind* the side but a mile
    past its end and back — so the chain's box always meets the bounds
    (the whole-chain screen passes, the segment screen decides) and the
    box around ring and chain, hence the margin, is the same for every
    offset up to a mile.
    """
    min_x, min_y, max_x, max_y = polygon._bounds
    nx, ny = normal
    tx, ty = -ny, nx
    mid_x, mid_y = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    half_n = (max_x - min_x) / 2.0 if nx else (max_y - min_y) / 2.0
    half_t = (max_y - min_y) / 2.0 if nx else (max_x - min_x) / 2.0
    base = (mid_x + nx * half_n, mid_y + ny * half_n)
    corner = (base[0] + tx * half_t, base[1] + ty * half_t)
    reach = half_t + 1.0
    out = (base[0] + nx - tx * reach, base[1] + ny - ty * reach)
    lead_in = [
        (base[0] + nx + tx * reach, base[1] + ny + ty * reach), out,
        (base[0] - nx * 0.5 - tx * reach, base[1] - ny * 0.5 - ty * reach),
        out,
    ]
    return base, corner, (tx, ty), lead_in


def side_margin(polygon: Polygon, normal) -> float:
    lead_in = side_frame(polygon, normal)[3]
    xs, ys = zip(*lead_in)
    return kernels.screen_margin(polygon._edges, polygon._bounds,
                                 min(xs), min(ys), max(xs), max(ys))


def probe_chain(polygon: Polygon, normal, shape: str,
                offset: float) -> Polyline:
    """A chain whose last segment sits ``offset`` outside one side."""
    (bx, by), (kx, ky), (tx, ty), lead_in = side_frame(polygon, normal)
    nx, ny = normal
    if shape == "parallel":        # along the side: collinear at offset 0
        near = [(bx + nx * offset - tx * 0.3, by + ny * offset - ty * 0.3),
                (bx + nx * offset + tx * 0.3, by + ny * offset + ty * 0.3)]
    elif shape == "touching":      # end on: one endpoint at the offset
        near = [(bx + nx * offset, by + ny * offset),
                (bx + nx * (offset + 0.5), by + ny * (offset + 0.5))]
    elif shape == "corner":        # diagonal past the corner of the bounds
        cx, cy = kx + (nx + tx) * offset, ky + (ny + ty) * offset
        near = [(cx + (nx - tx) * 0.4, cy + (ny - ty) * 0.4),
                (cx - (nx - tx) * 0.4, cy - (ny - ty) * 0.4)]
    else:                          # what subline emits for an empty interval
        near = [(kx + nx * offset, ky + ny * offset),
                (kx + nx * offset + tx * 1e-7, ky + ny * offset + ty * 1e-7)]
    chain = Polyline.from_coordinates(lead_in + near)
    assert polygon.bounding_rect.intersects(chain.bounding_rect())
    return chain


def check_disc(center: Point, radius: float, polyline: Polyline) -> None:
    minimum, maximum = ref.distance_range_to_polyline(center, polyline)
    same(kernels.chain_within_distance(center.x, center.y, radius,
                                       polyline.xs, polyline.ys),
         (minimum <= radius, maximum <= radius))
    same(classify_polyline_within_distance(center, radius, polyline),
         Containment.OUT if minimum > radius
         else Containment.MUST if maximum <= radius else Containment.MAY)


def check_screens(polygon: Polygon, normal, shape: str,
                  offset: float) -> None:
    chain = probe_chain(polygon, normal, shape, offset)
    check_polygon_polyline(polygon, chain)
    # The disc through the same probe point: centre a mile inside the
    # side, radius a mile, so ``offset`` is the clearance again.
    (bx, by), _, _, _ = side_frame(polygon, normal)
    center = Point(bx - normal[0], by - normal[1])
    for radius in (1.0, math.nextafter(1.0, 2.0), 1.0 + offset):
        if radius >= 0.0:
            check_disc(center, radius, chain)


class TestScreenBoundaries:
    @pytest.mark.parametrize("polygon", SCREENED)
    def test_offsets_around_every_tolerance(self, polygon):
        skipped = 0
        for normal in SIDES:
            margin = side_margin(polygon, normal)
            for shape in SHAPES:
                for eps_steps, margin_steps in OFFSETS:
                    offset = eps_steps * EPSILON
                    if margin_steps:
                        offset += margin_steps * margin
                    if not abs(offset) <= 0.5:
                        skipped += 1       # the screen has stood down
                        continue
                    check_screens(polygon, normal, shape, offset)
        assert (skipped > 0) == (polygon is CONTINENT)

    def test_margin_follows_the_lengths(self):
        unit = side_margin(SQUARE, SIDES[0])
        assert 10 * EPSILON < unit < 1e-3
        # 3 * EPSILON / 1e-6: the short edge's reach dominates.
        assert (side_margin(SHORT_EDGE, SIDES[1]) - unit
                == pytest.approx(3e-3, rel=1e-3))
        assert 20 * unit < side_margin(COUNTY, SIDES[0]) < 0.1
        assert side_margin(CONTINENT, SIDES[0]) > 1e6
        degenerate = Polygon([Point(0, 0), Point(4, 0), Point(4, 0),
                              Point(4, 4)])
        assert side_margin(degenerate, SIDES[0]) == math.inf

    def test_short_edge_reaches_past_epsilon(self):
        """Half a thousandth of a mile above SHORT_EDGE's top side, over
        its 1e-6 edge, still "touches": a margin of a few EPSILON would
        have skipped it."""
        chain = Polyline.from_coordinates(
            [(5.0, 3.0), (5.0, 4.0005), (1.5, 4.0005)])
        assert ref.intersects_polyline(SHORT_EDGE, chain)
        assert not ref.intersects_polyline(SQUARE, chain)
        check_polygon_polyline(SHORT_EDGE, chain)
        check_polygon_polyline(SQUARE, chain)

    @pytest.mark.parametrize("scale, segment", [
        (1.0, (1.0000001045190203, 1.0000001045190203,
               1.8410085582931717, 1.8410085593334449)),
        (3.0, (3.0000030782561375, 3.0000030782561375,
               4.410196042494483, 4.4101960420226)),
        (10.0, (10.000033831001153, 10.000033831001153,
                13.77957063293432, 13.779570632545699)),
    ])
    def test_rounding_reaches_past_the_geometric_tolerance(self, scale,
                                                           segment):
        """Found by search: a segment starting on the extension of a
        diagonal edge, nearly parallel to it, "touches" the triangle
        from a hundred to thirty thousand EPSILON beyond its bounds —
        ``intersection_point`` divides cross products that carry 1e-16
        of rounding by a cross product just above 1e-9.  This is what
        the margin's ``_CROSS_ROUNDING`` term is for."""
        wedge = Polygon.from_coordinates(
            [(0, 0), (scale, scale), (scale, 0)])
        ax, ay, bx, by = segment
        clearance = ax - scale
        assert clearance > 100 * EPSILON * scale
        assert ref.intersects_segment(wedge, seg(ax, ay, bx, by))
        assert not ref.intersects_segment(
            wedge, seg(scale / 4.0, scale * 0.75, ax, ay))
        chain = Polyline.from_coordinates(
            [(scale / 4.0, scale * 0.75), (ax, ay), (bx, by)])
        assert ref.intersects_polyline(wedge, chain)
        check_polygon_polyline(wedge, chain)
        xs, ys = chain.xs, chain.ys
        assert 5 * clearance < kernels.screen_margin(
            wedge._edges, wedge._bounds, min(xs), min(ys), max(xs), max(ys))

    def test_screens_leave_work_undone(self, monkeypatch):
        """The point of the screens: clear segments are never tested."""
        tested = []
        exact = kernels.ring_intersects_segment
        monkeypatch.setattr(
            kernels, "ring_intersects_segment",
            lambda *args: tested.append(args[2:]) or exact(*args))
        staircase = Polyline.from_coordinates(
            [(-3, 1), (-1, 1), (-1, 3), (1, 3), (1, 6), (6, 6)])
        assert SQUARE.intersects_polyline(staircase)
        assert tested == [(-1.0, 3.0, 1.0, 3.0)]
        del tested[:]
        around = Polyline.from_coordinates(
            [(-1, -1), (5, -1), (5, 5), (-1, 5)])
        assert not SQUARE.intersects_polyline(around)
        assert not SQUARE.contains_polyline(around)
        assert tested == []


side = st.sampled_from(SIDES)
shape = st.sampled_from(SHAPES)
steps = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


class TestScreenHypothesis:
    @settings(max_examples=examples(300), deadline=None)
    @given(st.sampled_from(SCREENED), side, shape, steps, steps,
           st.floats(min_value=-1e-9, max_value=1e-9))
    def test_probe_chains(self, polygon, normal, kind, eps_steps,
                          margin_steps, jitter):
        offset = (eps_steps * EPSILON + jitter
                  + margin_steps * side_margin(polygon, normal))
        if abs(offset) <= 0.5:
            check_screens(polygon, normal, kind, offset)

    @settings(max_examples=examples(200), deadline=None)
    @given(polylines(), points,
           st.floats(min_value=0.0, max_value=8.0), st.booleans())
    def test_discs(self, polyline, center, radius, on_a_distance):
        if on_a_distance:
            # A radius that *is* one of the distances being compared.
            radius = ref.distance_range_to_polyline(center, polyline)[
                radius > 4.0]
        check_disc(center, radius, polyline)
