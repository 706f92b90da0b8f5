"""Piecewise-linear polylines — the geometric substance of routes.

The paper (§2) assumes "the route is given by a piece-wise linear
function" and relies on two primitives being "straightforward to
compute": the route-distance between two points on the route, and the
point at a given route-distance from another point.  ``Polyline``
provides exactly those, plus projection of an arbitrary plane point onto
the polyline (used when snapping noisy positions to a route) and
sub-polyline extraction (used to materialise uncertainty intervals).

Arc-length parametrisation
--------------------------
A polyline with vertices ``v0 .. vn`` is parametrised by cumulative
Euclidean arc length ``s`` in ``[0, length]``.  All distance arguments
below are arc lengths in canonical miles.

Besides its vertices a polyline holds their coordinates as two parallel
tuples (:attr:`Polyline.xs`, :attr:`Polyline.ys`), built once at
construction: that is the form the float predicates of
:mod:`repro.geometry.kernels` consume.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry import kernels
from repro.geometry.bbox import Rect2D
from repro.geometry.point import EPSILON, Point
from repro.geometry.segment import Segment


class Polyline:
    """An immutable piecewise-linear curve with arc-length queries."""

    __slots__ = ("_vertices", "_xs", "_ys", "_cumulative", "_length",
                 "_separated")

    def __init__(self, vertices: Iterable[Point]) -> None:
        verts = tuple(vertices)
        if len(verts) < 2:
            raise GeometryError("a polyline needs at least two vertices")
        # One pass: coordinates and cumulative arc length together.
        ax, ay = verts[0].x, verts[0].y
        xs = [ax]
        ys = [ay]
        total = 0.0
        cumulative = [total]
        for i in range(1, len(verts)):
            vertex = verts[i]
            bx, by = vertex.x, vertex.y
            total = total + math.hypot(ax - bx, ay - by)
            xs.append(bx)
            ys.append(by)
            cumulative.append(total)
            ax, ay = bx, by
        if cumulative[-1] <= EPSILON:
            raise GeometryError("a polyline must have positive length")
        self._vertices = verts
        self._xs = tuple(xs)
        self._ys = tuple(ys)
        self._cumulative = cumulative
        self._length = cumulative[-1]
        self._separated: bool | None = None

    @classmethod
    def from_coordinates(cls, coords: Iterable[tuple[float, float]]) -> "Polyline":
        """Build a polyline from ``(x, y)`` tuples."""
        return cls(Point(x, y) for x, y in coords)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The polyline's vertices, in order."""
        return self._vertices

    @property
    def xs(self) -> tuple[float, ...]:
        """The vertices' x coordinates, in order."""
        return self._xs

    @property
    def ys(self) -> tuple[float, ...]:
        """The vertices' y coordinates, in order."""
        return self._ys

    @property
    def length(self) -> float:
        """Total arc length."""
        return self._length

    @property
    def start(self) -> Point:
        return self._vertices[0]

    @property
    def end(self) -> Point:
        return self._vertices[-1]

    def segments(self) -> list[Segment]:
        """The polyline's constituent segments, in order."""
        return [
            Segment(a, b) for a, b in zip(self._vertices, self._vertices[1:])
        ]

    def bounding_rect(self) -> Rect2D:
        """The tightest axis-aligned rectangle containing the polyline."""
        xs, ys = self._xs, self._ys
        return Rect2D(min(xs), min(ys), max(xs), max(ys))

    def _segment_index_at(self, distance: float) -> int:
        """Index of the segment containing arc length ``distance``."""
        # bisect_right puts ties after equal cumulative values, so a
        # distance exactly at a vertex resolves to the following segment
        # (except at the very end).
        idx = bisect.bisect_right(self._cumulative, distance) - 1
        return min(max(idx, 0), len(self._vertices) - 2)

    def _coords_at(self, distance: float) -> tuple[float, float]:
        """``(x, y)`` at arc length ``distance``, clamped to ``[0, length]``."""
        distance = min(max(distance, 0.0), self._length)
        return self._coords_on(self._segment_index_at(distance), distance)

    def _coords_on(self, idx: int, distance: float) -> tuple[float, float]:
        """:meth:`_coords_at` of a clamped ``distance`` on its segment
        ``idx``: the one place an arc length becomes coordinates.
        :meth:`point_at`, :meth:`subline` and :meth:`subline_rect` all
        interpolate here."""
        ax, ay = self._xs[idx], self._ys[idx]
        bx, by = self._xs[idx + 1], self._ys[idx + 1]
        length = math.hypot(ax - bx, ay - by)
        if length <= EPSILON:
            return ax, ay
        fraction = (distance - self._cumulative[idx]) / length
        return ax + (bx - ax) * fraction, ay + (by - ay) * fraction

    def point_at(self, distance: float) -> Point:
        """The point at arc length ``distance`` from the start.

        ``distance`` is clamped to ``[0, length]`` — the paper's vehicles
        never leave their route, and clamping makes dead-reckoned
        positions that slightly overshoot the route end well defined.
        """
        return Point(*self._coords_at(distance))

    def tangent_at(self, distance: float) -> Point:
        """Unit tangent vector at arc length ``distance``.

        At a vertex the tangent of the *following* segment is returned
        (the direction of travel out of the corner); at the end of the
        polyline, the last segment's direction.
        """
        distance = min(max(distance, 0.0), self._length)
        idx = self._segment_index_at(distance)
        a, b = self._vertices[idx], self._vertices[idx + 1]
        direction = b - a
        norm = direction.norm()
        if norm <= EPSILON:
            return Point(1.0, 0.0)
        return Point(direction.x / norm, direction.y / norm)

    def project(self, point: Point) -> tuple[float, float]:
        """Project ``point`` onto the polyline.

        Returns ``(arc_length, euclidean_distance)`` of the closest point
        on the polyline to ``point``.
        """
        return kernels.chain_project(
            self._xs, self._ys, self._cumulative, point.x, point.y
        )

    def arc_length_of(self, point: Point, tolerance: float = 1e-6) -> float:
        """Arc length of a point assumed to lie on the polyline.

        Raises :class:`GeometryError` when ``point`` is farther than
        ``tolerance`` from the polyline.
        """
        arc, dist = self.project(point)
        if dist > tolerance:
            raise GeometryError(
                f"point ({point.x}, {point.y}) is {dist:.6g} miles off the polyline"
            )
        return arc

    def route_distance(self, p1: Point, p2: Point, tolerance: float = 1e-6) -> float:
        """Route-distance between two on-route points (paper §2).

        The distance along the route between ``p1`` and ``p2``; always
        nonnegative.
        """
        return abs(
            self.arc_length_of(p1, tolerance) - self.arc_length_of(p2, tolerance)
        )

    def _strip(self, from_distance: float,
               to_distance: float) -> tuple[list[float], list[float]]:
        """Vertex coordinates of the sub-polyline between two arc lengths.

        Both arguments are clamped to ``[0, length]``, in either order.
        Interior vertices within ``EPSILON`` of the vertex before them
        are dropped.  A numerically empty interval, or one whose two ends
        both collapse onto one corner, yields a stub: 1e-7 miles (~ 6
        thousandths of an inch, invisible to every consumer but always
        longer than ``EPSILON``) along the route, or off-axis at the
        route's very end.
        """
        lo = min(max(min(from_distance, to_distance), 0.0), self._length)
        hi = min(max(max(from_distance, to_distance), 0.0), self._length)
        start_x, start_y = self._coords_at(lo)
        if hi - lo > EPSILON:
            first = self._segment_index_at(lo) + 1
            last = self._segment_index_at(hi) + 1
            end = self._coords_at(hi)
            xs, ys = [start_x], [start_y]
            for x, y in (*zip(self._xs[first:last], self._ys[first:last]),
                         end):
                if abs(xs[-1] - x) > EPSILON or abs(ys[-1] - y) > EPSILON:
                    xs.append(x)
                    ys.append(y)
            if len(xs) > 1:
                return xs, ys
            # Both ends within EPSILON of one corner: a nanometre stub
            # where that is long enough, the empty interval's otherwise.
            x, y = end[0] + 1e-9, end[1]
            if math.hypot(start_x - x, start_y - y) > EPSILON:
                return [start_x, x], [start_y, y]
        nudge = min(lo + 1e-7, self._length)
        x, y = self._coords_at(nudge) if nudge > lo else (start_x, start_y)
        if math.hypot(start_x - x, start_y - y) <= EPSILON:
            x, y = start_x + 1e-7, start_y
        return [start_x, x], [start_y, y]

    def subline(self, from_distance: float, to_distance: float) -> "Polyline":
        """The sub-polyline between two arc lengths (order-insensitive).

        Used to materialise an uncertainty interval as geometry; see
        :meth:`_strip` for clamping and the stub of an empty interval.
        """
        return Polyline(map(Point, *self._strip(from_distance, to_distance)))

    def subline_rect(self, from_distance: float, to_distance: float) -> Rect2D:
        """``subline(...).bounding_rect()``, bit for bit, geometry-free;
        no strip is built where it would drop no point (DESIGN.md)."""
        lo = min(max(min(from_distance, to_distance), 0.0), self._length)
        hi = min(max(max(from_distance, to_distance), 0.0), self._length)
        if self._separated is None:  # no consecutive vertices within EPSILON
            xs, ys = self._xs, self._ys
            self._separated = all(
                abs(ax - bx) > EPSILON or abs(ay - by) > EPSILON
                for ax, bx, ay, by in zip(xs, xs[1:], ys, ys[1:]))
        if hi - lo > EPSILON and self._separated:
            first = self._segment_index_at(lo)
            last = self._segment_index_at(hi)
            sx, sy = self._coords_on(first, lo)
            ex, ey = self._coords_on(last, hi)
            xs = self._xs[first + 1:last + 1]
            ys = self._ys[first + 1:last + 1]
            ax, ay = (xs[0], ys[0]) if xs else (ex, ey)
            bx, by = (xs[-1], ys[-1]) if xs else (sx, sy)
            if ((abs(sx - ax) > EPSILON or abs(sy - ay) > EPSILON)
                    and (abs(bx - ex) > EPSILON or abs(by - ey) > EPSILON)):
                return Rect2D(min(sx, *xs, ex), min(sy, *ys, ey),
                              max(sx, *xs, ex), max(sy, *ys, ey))
        xs, ys = self._strip(from_distance, to_distance)
        return Rect2D(min(xs), min(ys), max(xs), max(ys))

    def resampled(self, spacing: float) -> list[Point]:
        """Points every ``spacing`` miles along the polyline (incl. both ends)."""
        if spacing <= 0:
            raise GeometryError("resample spacing must be positive")
        points = []
        s = 0.0
        while s < self._length:
            points.append(self.point_at(s))
            s += spacing
        points.append(self.end)
        return points

    def reversed(self) -> "Polyline":
        """The same curve traversed in the opposite direction."""
        return Polyline(reversed(self._vertices))

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"Polyline({len(self._vertices)} vertices, "
            f"length={self._length:.3f})"
        )


def polyline_through(points: Sequence[tuple[float, float]]) -> Polyline:
    """Convenience constructor used pervasively in tests and examples."""
    return Polyline.from_coordinates(points)


__all__ = [
    "Polyline",
    "polyline_through",
]
