"""Slab rectangles without slab geometry, bit for bit.

``OPlane.runs`` asks ``Route.interval_rect`` for each slab's rectangle:
a walk over the polyline's coordinate tuples that allocates no ``Point``,
``Segment`` or ``Polyline``.  It must equal — compared as packed bytes,
so ``-0.0`` is not ``0.0`` — the bounding rectangle of the strip the old
code materialised (``tests/oracle/geometry_reference.py`` keeps that
code), and ``point_at`` / ``interval_polyline``, which share the walk,
must still return what they returned.
"""

from __future__ import annotations

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import bounds_for_policy
from repro.core.policies import make_policy
from repro.core.position import PositionAttribute
from repro.errors import GeometryError
from repro.geometry.bbox import Box3D
from repro.geometry.point import EPSILON, Point
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane
from repro.routes.generators import grid_city_network
from repro.routes.route import Route
from tests.conftest import examples
from tests.index.test_oplane_bounds import maximal_runs
from tests.oracle import geometry_reference as ref


def packed(*floats: float) -> bytes:
    return struct.pack(f"{len(floats)}d", *floats)


def rect_bits(rect) -> bytes:
    return packed(rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def vertex_bits(polyline: Polyline) -> bytes:
    return packed(*(c for v in polyline.vertices for c in (v.x, v.y)))


def check_interval(route: Route, lo: float, hi: float, direction: int) -> None:
    """``interval_rect`` and ``interval_polyline`` against the oracle."""
    line = route.polyline
    rect = route.interval_rect(lo, hi, direction)
    strip = route.interval_polyline(lo, hi, direction)
    assert rect_bits(rect) == rect_bits(strip.bounding_rect())
    try:
        expected = ref.interval_polyline(line, lo, hi, direction)
    except GeometryError:
        # The fault this PR fixes: both ends on one corner, old stub too
        # short.  The replacement is the empty interval's stub (1e-7
        # miles, or whatever is left of the route).
        assert len(strip.vertices) == 2 and strip.length > EPSILON
        assert strip.start == ref.point_at(
            line, min(lo, hi) if direction == 0
            else line.length - max(lo, hi))
        return
    assert vertex_bits(strip) == vertex_bits(expected)
    assert rect_bits(rect) == rect_bits(ref.bounding_rect(expected))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def staircases(draw):
    """Grid routes: alternating axis-parallel legs on a quarter-mile
    lattice (what ``grid_city_network`` builds), ``-0.0`` included."""
    x = draw(st.integers(-3, 3)) * 0.25
    y = draw(st.integers(-3, 3)) * 0.25
    horizontal = draw(st.booleans())
    verts = [(x, y)]
    for blocks in draw(st.lists(
            st.integers(-4, 4).filter(bool), min_size=1, max_size=6)):
        if horizontal:
            x += blocks * 0.25
        else:
            y += blocks * 0.25
        horizontal = not horizontal
        verts.append((x, y))
    if draw(st.booleans()):
        verts = [(-0.0 if a == 0 else a, -0.0 if b == 0 else b)
                 for a, b in verts]
    return Polyline.from_coordinates(verts)


coordinate = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 1.0 + EPSILON / 2.0,
                     1.0 + 1.5 * EPSILON, 1e-7]),
    st.floats(min_value=-5.0, max_value=5.0,
              allow_nan=False, allow_infinity=False))


@st.composite
def free_polylines(draw):
    verts = draw(st.lists(st.tuples(coordinate, coordinate),
                          min_size=2, max_size=6))
    try:
        return Polyline.from_coordinates(verts)
    except GeometryError:
        return Polyline.from_coordinates([(3, 0), (0, 0), (0, 3)])


close_offsets = st.sampled_from([0.0, -0.0, EPSILON / 2.0, EPSILON,
                                 -EPSILON, 1.5 * EPSILON, 1e-7])


@st.composite
def crowded_polylines(draw):
    """A polyline with some vertices repeated or moved within a few
    ``EPSILON`` of their predecessor, on one axis or both."""
    base = draw(st.one_of(staircases(), free_polylines()))
    verts = []
    for x, y in zip(base.xs, base.ys):
        verts.append((x, y))
        if draw(st.integers(0, 2)) == 0:
            verts.append((x + draw(close_offsets), y + draw(close_offsets)))
    if draw(st.booleans()):
        verts.insert(0, (-0.0, -0.0))
    try:
        return Polyline.from_coordinates(verts)
    except GeometryError:
        return base


polylines = st.one_of(staircases(), free_polylines(), crowded_polylines())
nudges = st.sampled_from([0.0, 1e-10, -1e-10, 9e-10, -9e-10])
widths = st.sampled_from([0.0, EPSILON / 2.0, EPSILON, 1.5 * EPSILON,
                          1.7 * EPSILON, 1e-7, 0.3])


@st.composite
def arc_lengths(draw, polyline):
    """At and around a cumulative length, or anywhere, or out of range."""
    cumulative = polyline._cumulative
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(cumulative)) + draw(nudges)
    if kind == 1:
        return draw(st.floats(min_value=0.0, max_value=polyline.length))
    if kind == 2:
        return draw(st.sampled_from([-1.0, -0.0, polyline.length + 1.0]))
    return polyline.length + draw(nudges)


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------

class TestRectWalk:
    @settings(max_examples=examples(400), deadline=None)
    @given(st.data(), polylines, widths, st.booleans(), st.integers(0, 1))
    def test_rect_and_strip_equal_the_materialised_ones(
            self, data, polyline, width, swap, direction):
        route = Route("r", polyline)
        lo = data.draw(arc_lengths(polyline))
        hi = lo + width if width else data.draw(arc_lengths(polyline))
        if swap:
            lo, hi = hi, lo
        check_interval(route, lo, hi, direction)

    @settings(max_examples=examples(200), deadline=None)
    @given(st.data(), polylines)
    def test_point_at_is_unchanged(self, data, polyline):
        distance = data.draw(arc_lengths(polyline))
        got, expected = polyline.point_at(distance), ref.point_at(
            polyline, distance)
        assert packed(got.x, got.y) == packed(expected.x, expected.y)

    def test_every_vertex_of_seeded_grid_routes(self):
        """One- and two-nanometre intervals around each interior vertex
        of 60 grid routes: where the old ``subline`` raised (a corner
        approached in the -x direction) the stub is now valid."""
        rng = random.Random(24)
        network = grid_city_network(10, 10, 0.25)
        mended = 0
        for _ in range(60):
            route = network.random_route(rng, min_length=1.0)
            for at in route.polyline._cumulative[1:-1]:
                for before, after in ((0.9e-9, 0.8e-9), (0.4e-9, 0.9e-9),
                                      (1.1e-9, 0.2e-9), (0.0, 1.2e-9)):
                    for direction in (0, 1):
                        lo, hi = at - before, at + after
                        try:
                            ref.interval_polyline(
                                route.polyline, lo, hi, direction)
                        except GeometryError:
                            mended += 1
                        check_interval(route, lo, hi, direction)
        assert mended > 0


# ----------------------------------------------------------------------
# OPlane.runs
# ----------------------------------------------------------------------

def reference_boxes(plane: OPlane, slab_minutes: float) -> list[Box3D]:
    """The slab boxes as they were: one materialised strip per slab."""
    boxes = []
    elapsed = 0.0
    while elapsed < plane.horizon - 1e-12:
        slab_end = min(elapsed + slab_minutes, plane.horizon)
        lo, hi = plane.travel_range(elapsed, slab_end)
        rect = ref.bounding_rect(ref.interval_polyline(
            plane.route.polyline, lo, hi, plane.attribute.direction))
        boxes.append(Box3D.from_rect(
            rect, plane.start_time + elapsed, plane.start_time + slab_end))
        elapsed = slab_end
    return boxes


def box_bits(boxes: list[Box3D]) -> list[bytes]:
    return [packed(b.min_x, b.min_y, b.min_t, b.max_x, b.max_y, b.max_t)
            for b in boxes]


def test_boxes_equal_the_old_decomposition_on_seeded_planes():
    rng = random.Random(1998)
    network = grid_city_network(10, 10, 0.25)
    repeated = 0
    for i in range(50):
        route = network.random_route(rng, min_length=1.0)
        direction = rng.randrange(2)
        speed = rng.uniform(0.2, 0.6)
        start = route.travel_point(
            rng.choice([0.0, rng.uniform(0.0, route.length)]), direction)
        kind = rng.choice(["dl", "ail", "cil"])
        plane = OPlane(
            PositionAttribute(
                starttime=rng.choice([0.0, 7.5]), route_id=route.route_id,
                start_x=start.x, start_y=start.y, direction=direction,
                speed=speed, policy=kind),
            route,
            bounds_for_policy(make_policy(kind, 5.0), speed, speed * 1.6),
            horizon=rng.choice([120.0, 42.0]),
        )
        for slab_minutes in (5.0, 3.3):
            boxes = reference_boxes(plane, slab_minutes)
            assert box_bits(plane.runs(slab_minutes)) == box_bits(
                maximal_runs(boxes))
            repeated += len(boxes) - len({b.rect for b in boxes})
    # The end-of-route stub is what most slabs of a long horizon share.
    assert repeated > 500


def test_start_of_route_at_negative_zero_is_not_reused_for_zero():
    """``lo`` may come out ``-0.0`` or ``0.0``; on a polyline that starts
    at ``-0.0`` the two give rectangles that differ in a sign bit, so a
    travel range only stands for the next slab's when its bits repeat."""
    line = Polyline([Point(-0.0, -0.0), Point(2.0, -0.0)])
    route = Route("r", line)
    minus = route.interval_rect(-0.0, 1.0)
    plus = route.interval_rect(0.0, 1.0)
    assert rect_bits(minus) != rect_bits(plus)
    assert rect_bits(minus) == rect_bits(
        ref.bounding_rect(ref.subline(line, -0.0, 1.0)))
    assert rect_bits(plus) == rect_bits(
        ref.bounding_rect(ref.subline(line, 0.0, 1.0)))


# ----------------------------------------------------------------------
# Polyline.subline_rect's direct path
# ----------------------------------------------------------------------
#
# ``subline_rect`` skips ``_strip`` where the strip would keep every
# point: the interval is longer than ``EPSILON``, no two consecutive
# vertices are within ``EPSILON`` on both axes and neither end is within
# it of its neighbouring vertex.  Polylines with close or repeated
# vertices (``crowded_polylines``, which the walk above draws too), ones
# at ``-0.0`` and intervals ending on a vertex must take the strip's
# rectangle, bit for bit.


def separated(polyline: Polyline) -> bool:
    """The polyline's cached flag: no consecutive vertices within
    ``EPSILON`` on both axes (set by its first ``subline_rect``)."""
    polyline.subline_rect(0.0, polyline.length)
    return polyline._separated


def check_subline_rect(polyline: Polyline, lo: float, hi: float) -> None:
    """``subline_rect`` against ``_strip``'s rectangle and the oracle's."""
    rect = polyline.subline_rect(lo, hi)
    xs, ys = polyline._strip(lo, hi)
    assert rect_bits(rect) == packed(min(xs), min(ys), max(xs), max(ys))
    try:
        expected = ref.subline(polyline, lo, hi)
    except GeometryError:
        return  # the old stub fault; ``_strip`` is the reference here
    assert rect_bits(rect) == rect_bits(ref.bounding_rect(expected))


class TestDirectRect:
    @settings(max_examples=examples(200), deadline=None)
    @given(st.data(), polylines)
    def test_intervals_ending_on_a_vertex(self, data, polyline):
        cumulative = polyline._cumulative
        lo = data.draw(st.sampled_from(cumulative))
        hi = data.draw(st.one_of(st.sampled_from(cumulative),
                                 arc_lengths(polyline)))
        check_subline_rect(polyline, lo, hi)
        check_subline_rect(polyline, hi, lo)

    def test_close_vertices_and_negative_zero(self):
        line = Polyline.from_coordinates(
            [(-0.0, -0.0), (1.0, -0.0), (1.0 + EPSILON / 2.0, 0.0),
             (1.0, 1.0), (1.0, 1.0), (-0.0, 1.0)])
        assert not separated(line)
        for lo, hi in [(0.0, 3.0), (-0.0, 0.5), (0.5, 1.0), (1.0, 2.5),
                       (0.0, line.length), (-1.0, 0.25)]:
            check_subline_rect(line, lo, hi)

    def test_grid_routes_take_the_direct_path(self, monkeypatch):
        """On grid routes the direct path answers intervals away from
        the vertices without building a strip; an interval ending on a
        vertex builds one."""
        rng = random.Random(42)
        network = grid_city_network(10, 10, 0.25)
        lines = [network.random_route(rng, min_length=1.0).polyline
                 for _ in range(40)]
        assert all(separated(line) for line in lines)
        inside = [(line, lo, rng.uniform(lo, line.length))
                  for line in lines for lo in
                  (rng.uniform(0.0, line.length) for _ in range(10))]
        on_vertex = [(line, 0.0, line._cumulative[1]) for line in lines]
        calls = []
        strip = Polyline._strip
        monkeypatch.setattr(Polyline, "_strip", lambda self, lo, hi: (
            calls.append(lo) or strip(self, lo, hi)))
        for line, lo, hi in inside:
            line.subline_rect(lo, hi)
        stripped_inside = len(calls)
        for line, lo, hi in on_vertex:
            line.subline_rect(lo, hi)
        monkeypatch.undo()
        assert stripped_inside < len(inside) // 10
        assert len(calls) - stripped_inside == len(on_vertex)
        for line, lo, hi in inside + on_vertex:
            check_subline_rect(line, lo, hi)
