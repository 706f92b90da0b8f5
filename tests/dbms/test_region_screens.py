"""The refine stage's screens decide only what the exact predicates would.

``_PolygonRegion.classify`` and ``_DiscRegion.classify`` answer some
candidates from their bounding boxes or vertices alone (DESIGN.md,
"Screens").  Each outcome must equal the pre-test-free predicate —
``classify_polyline_against_polygon`` / ``classify_polyline_within_distance``
— entry by entry.  The strategies aim at the places where a screen and
the predicate could part: rectangles given in every vertex order (16
of the 24 trace a bow-tie), zero-width rectangles, chain vertices on an
edge, within ``EPSILON`` outside one, and coordinates so large that an
ulp exceeds ``EPSILON``.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.query import (
    classify_polyline_against_polygon,
    classify_polyline_within_distance,
)
from repro.dbms.refine import (
    RangeQuery,
    WithinDistanceQuery,
    _DiscRegion,
    _PolygonRegion,
)
from repro.errors import GeometryError
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from tests.conftest import examples

#: Where the figure sits: near the origin, at city scale, and where an
#: ulp of a coordinate (1e7: 2e-9, 1e12: 1.2e-4) exceeds ``EPSILON``.
OFFSETS = st.sampled_from([0.0, -3.5, 250.0, 1e7, -1e12])
#: Rectangle sides, zero included.
SIDES = st.sampled_from([0.0, EPSILON, 1e-3, 0.5, 7.25, 3.3e7, 7e11])
#: How far past an edge a vertex sits: on it, or about ``EPSILON`` out.
NUDGES = st.sampled_from([0.0, 0.0, EPSILON / 2, EPSILON, 2 * EPSILON,
                          -EPSILON / 2, -EPSILON])
ORDERS = list(itertools.permutations(range(4)))
GOLDEN = 0.6180339887498949


@st.composite
def rectangles(draw):
    """``(polygon, its bounding rectangle)``; the polygon's four corners
    come in any order, so two thirds of them trace a bow-tie."""
    min_x = draw(OFFSETS) + draw(st.floats(-20.0, 20.0))
    min_y = draw(OFFSETS) + draw(st.floats(-20.0, 20.0))
    max_x = min_x + draw(SIDES)
    max_y = min_y + draw(SIDES)
    corners = [(min_x, min_y), (max_x, min_y), (max_x, max_y),
               (min_x, max_y)]
    order = draw(st.sampled_from(ORDERS))
    polygon = Polygon.from_coordinates([corners[i] for i in order])
    return polygon, polygon.bounding_rect


def coordinate(draw, low: float, high: float, held: bool) -> float:
    """A value on ``low`` or ``high``, between them, or — unless
    ``held`` — nudged about ``EPSILON`` across them or beyond them."""
    kind = draw(st.sampled_from(
        ["low", "high", "inside"] if held
        else ["low", "high", "inside", "outside"]))
    nudge = 0.0 if held else draw(NUDGES)
    span = high - low
    if kind == "low":
        return low - nudge
    if kind == "high":
        return high + nudge
    if kind == "inside":
        # Scrambled through the golden ratio so that the fraction has a
        # full mantissa and the arithmetic on it rounds.
        return low + span * (draw(st.integers(0, 1 << 20)) * GOLDEN % 1.0)
    return draw(st.sampled_from([low - 1.0, high + 1.0,
                                 low - span - 3.0, high + span + 3.0]))


@st.composite
def chains(draw, rect):
    """A polyline whose vertices each sit on, near, inside or outside
    ``rect`` along both axes; half of them are held in the closed
    ``rect``."""
    held = draw(st.booleans())
    count = draw(st.integers(2, 5))
    points = [(coordinate(draw, rect.min_x, rect.max_x, held),
               coordinate(draw, rect.min_y, rect.max_y, held))
              for _ in range(count)]
    try:
        return Polyline.from_coordinates(points)
    except GeometryError:
        return Polyline.from_coordinates(
            [points[0], (points[0][0] + 1.0, points[0][1] - 2.0)])


def entries(geometries):
    """The query core's cache entries, as far as a region reads them."""
    return [(None, None, g, g.bounding_rect()) for g in geometries]


@st.composite
def range_cases(draw):
    polygon, rect = draw(rectangles())
    return polygon, draw(st.lists(chains(rect), min_size=1, max_size=10))


@settings(max_examples=examples(400))
@given(range_cases())
def test_polygon_region_equals_the_exact_classifier(case):
    polygon, geometries = case
    region = _PolygonRegion(None, RangeQuery(polygon, 0.0), 0)
    assert region.classify(entries(geometries)) == [
        classify_polyline_against_polygon(g, polygon) for g in geometries
    ]


@st.composite
def disc_cases(draw):
    offset = draw(OFFSETS)
    center = Point(offset + draw(st.floats(-20.0, 20.0)),
                   draw(OFFSETS) + draw(st.floats(-20.0, 20.0)))
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    # Chains aimed at the disc's bounding square: a vertex on it, near
    # it or inside it probes both bbox distance screens.
    square = _DiscRegion(None, WithinDistanceQuery(center, radius, 0.0),
                         0).window
    geometries = draw(st.lists(chains(square), min_size=1, max_size=10))
    return center, radius, geometries


@settings(max_examples=examples(400))
@given(disc_cases())
def test_disc_region_equals_the_exact_classifier(case):
    center, radius, geometries = case
    region = _DiscRegion(None, WithinDistanceQuery(center, radius, 0.0), 0)
    assert region.classify(entries(geometries)) == [
        classify_polyline_within_distance(center, radius, g)
        for g in geometries
    ]
