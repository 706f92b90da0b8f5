"""The refine stage's screens decide only what the exact predicates would.

``_PolygonRegion.classify`` and ``_DiscRegion.classify`` answer some
candidates from their bounding boxes or vertices alone (DESIGN.md,
"Screens").  Each outcome must equal the pre-test-free predicate —
``classify_polyline_against_polygon`` / ``classify_polyline_within_distance``
— entry by entry.  The strategies aim at the places where a screen and
the predicate could part: rectangles given in every vertex order (16
of the 24 trace a bow-tie), zero-width rectangles, chain vertices on an
edge, within ``EPSILON`` outside one, and coordinates so large that an
ulp exceeds ``EPSILON``; for the disc, vertices a few ulps either side
of the circle and either side of the vertex screen's slack, chains
wholly inside or outside it, a last segment too short for the kernel to
measure, and radii 0 and ``inf``.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import example, given, settings
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
from repro.geometry.kernels import ROUNDING
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from tests.conftest import examples, region_outcomes

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


@st.composite
def range_cases(draw):
    polygon, rect = draw(rectangles())
    return polygon, draw(st.lists(chains(rect), min_size=1, max_size=10))


@settings(max_examples=examples(400))
@given(range_cases())
def test_polygon_region_equals_the_exact_classifier(case):
    polygon, geometries = case
    region = _PolygonRegion(None, RangeQuery(polygon, 0.0), 0)
    assert region_outcomes(region, geometries) == [
        classify_polyline_against_polygon(g, polygon) for g in geometries
    ]


#: Disc centres: ``OFFSETS``, and out to 2**20, where an ulp is 2**-32.
DISC_OFFSETS = st.sampled_from([0.0, -3.5, 250.0, 2.0 ** 20, -2.0 ** 20,
                                1e7, -1e12])
#: Jitter and radii, some of them dyadic, so that a vertex placed
#: ``radius`` from the centre along an axis is exactly ``radius`` away.
JITTER = st.one_of(st.sampled_from([0.0, 0.5, -7.25]),
                   st.floats(-20.0, 20.0))
#: Directions from the centre: along an axis, and off it.
ANGLES = st.sampled_from([0.0, math.pi / 2, math.pi, 0.3, 2.0, -1.1])
#: Which of ``ring_distance``'s eight distances, and how many ulps off.
NEAR = st.integers(0, 7)
ULPS = st.integers(0, 4)
VERTEX_SIDES = st.sampled_from(["inside", "outside"])
CHAIN_SIDES = st.sampled_from(["mixed", "inside", "outside"])
#: Steps shorter than ``EPSILON`` along a ray, inward and outward.
TAILS = st.sampled_from([EPSILON / 2, -EPSILON / 2, EPSILON])


def ring_distance(draw, radius: float, slack: float, side: str) -> float:
    """A vertex's distance from the centre: a few ulps either side of
    ``radius``, either side of the vertex screen's thresholds, or well
    inside or outside the circle, on the given ``side`` of it."""
    ulps = draw(ULPS) * 2.0 ** -52
    inner = radius - 2.0 * (slack + EPSILON)
    near = [d for d in (radius * (1.0 - ulps), radius * (1.0 + ulps),
                        radius - slack, radius + slack, inner - slack,
                        inner + slack, radius * GOLDEN, radius / GOLDEN + 1.0)
            if (d <= radius) == (side == "inside")]
    return max(0.0, near[draw(NEAR) % len(near)])


@st.composite
def ring_chains(draw, center, radius):
    """A polyline whose vertices sit near the circle: mixed, all inside
    or all outside, at times all on one ray from the centre, and at
    times ending in a step shorter than ``EPSILON`` along its ray, a
    segment the kernel measures from its first vertex."""
    placement = radius if math.isfinite(radius) else draw(
        st.floats(0.0, 30.0))
    slack = ROUNDING * (placement + max(abs(center.x), abs(center.y))
                        + placement)
    side = draw(CHAIN_SIDES)
    ray = draw(ANGLES) if draw(st.booleans()) else None
    polar = [(ring_distance(draw, placement, slack,
                            draw(VERTEX_SIDES) if side == "mixed" else side),
              draw(ANGLES) if ray is None else ray)
             for _ in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):
        distance, angle = polar[-1]
        polar.append((distance - draw(TAILS), angle))
    points = [(center.x + d * math.cos(a), center.y + d * math.sin(a))
              for d, a in polar]
    try:
        return Polyline.from_coordinates(points)
    except GeometryError:
        return Polyline.from_coordinates(
            [points[0], (points[0][0] + 1.0, points[0][1] - 2.0)])


@st.composite
def disc_cases(draw):
    center = Point(draw(DISC_OFFSETS) + draw(JITTER),
                   draw(DISC_OFFSETS) + draw(JITTER))
    radius = draw(st.one_of(st.sampled_from([0.0, math.inf, 1.0, 2.5]),
                            st.floats(0.0, 30.0)))
    # Chains aimed at the disc's bounding square probe both bbox
    # distance screens; chains aimed at its circle, the vertex screen.
    square = _DiscRegion(None, WithinDistanceQuery(
        center, radius if math.isfinite(radius) else 30.0, 0.0), 0).window
    geometries = draw(st.lists(
        st.one_of(chains(square), ring_chains(center, radius)),
        min_size=1, max_size=10))
    return center, radius, geometries


@settings(max_examples=examples(400))
@given(disc_cases())
@example((Point(0.0, 0.0), 1.0, [
    Polyline.from_coordinates(
        [(1.0 + 3e-10, 5.0), (1.0 + 3e-10, 0.0), (1.0 - 5e-10, 0.0)]),
    Polyline.from_coordinates([(1.0, 0.0), (0.0, 0.5)]),
]))
def test_disc_region_equals_the_exact_classifier(case):
    # The example's first chain ends 5e-10 inside the circle on a last
    # segment shorter than EPSILON, which the kernel measures from its
    # nearer end: MAY, as the geometry says, although no vertex is deep
    # enough inside for the vertex screen to settle it.  Its second
    # chain has a vertex on the circle, which is not beyond it: MUST.
    center, radius, geometries = case
    region = _DiscRegion(None, WithinDistanceQuery(center, radius, 0.0), 0)
    assert region_outcomes(region, geometries) == [
        classify_polyline_within_distance(center, radius, g)
        for g in geometries
    ]
