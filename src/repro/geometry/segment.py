"""Line segments: projection, intersection, and distance queries.

Segments are the building block of routes (piecewise-linear polylines)
and of polygon boundaries.  The operations here are deliberately robust
for the well-conditioned inputs the simulator produces; degenerate
segments (zero length) are accepted and treated as points.

The predicates (projection, distance, intersection) are thin wrappers
over the float functions of :mod:`repro.geometry.kernels`, which hold
the one implementation of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry import kernels
from repro.geometry.point import EPSILON, Point


@dataclass(frozen=True, slots=True)
class Segment:
    """A directed line segment from ``start`` to ``end``."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def is_degenerate(self) -> bool:
        """True when the segment has (numerically) zero length."""
        return self.length <= EPSILON

    def point_at_fraction(self, fraction: float) -> Point:
        """The point ``fraction`` of the way along the segment.

        ``fraction`` outside [0, 1] extrapolates along the segment's line.
        """
        return self.start.lerp(self.end, fraction)

    def point_at_distance(self, distance: float) -> Point:
        """The point at Euclidean ``distance`` from ``start`` along the segment.

        A degenerate segment returns its single point for any distance.
        """
        length = self.length
        if length <= EPSILON:
            return self.start
        return self.point_at_fraction(distance / length)

    def project_fraction(self, point: Point) -> float:
        """Fraction in [0, 1] of the closest point on the segment to ``point``."""
        start, end = self.start, self.end
        return kernels.project_fraction(
            start.x, start.y, end.x, end.y, point.x, point.y
        )

    def closest_point(self, point: Point) -> Point:
        """The point on the segment closest to ``point``."""
        return self.point_at_fraction(self.project_fraction(point))

    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the segment."""
        start, end = self.start, self.end
        return kernels.distance_to_point(
            start.x, start.y, end.x, end.y, point.x, point.y
        )

    def distance_to_segment(self, other: "Segment") -> float:
        """Minimum Euclidean distance between two closed segments.

        Zero when they intersect; otherwise the minimum is attained at
        an endpoint of one segment projected onto the other, so four
        endpoint-to-segment distances cover all cases.
        """
        if self.intersects(other):
            return 0.0
        return min(
            self.distance_to_point(other.start),
            self.distance_to_point(other.end),
            other.distance_to_point(self.start),
            other.distance_to_point(self.end),
        )

    def _coordinates_with(self, other: "Segment") -> tuple[
            float, float, float, float, float, float, float, float]:
        start, end = self.start, self.end
        other_start, other_end = other.start, other.end
        return (start.x, start.y, end.x, end.y,
                other_start.x, other_start.y, other_end.x, other_end.y)

    def intersects(self, other: "Segment") -> bool:
        """True when the two closed segments share at least one point."""
        return kernels.segments_intersect(*self._coordinates_with(other))

    def intersection_point(self, other: "Segment") -> Point | None:
        """The unique intersection point of two segments, if there is one.

        Returns ``None`` when the segments do not intersect *or* when they
        are collinear and overlap in more than a single point (no unique
        answer); use :meth:`intersects` for a pure predicate.
        """
        hit = kernels.intersection_point(*self._coordinates_with(other))
        return None if hit is None else Point(hit[0], hit[1])

    def _overlaps_collinear(self, other: "Segment") -> bool:
        """True when the segments are collinear and their ranges overlap."""
        return kernels.overlaps_collinear(*self._coordinates_with(other))

    def midpoint(self) -> Point:
        """The midpoint of the segment."""
        return self.start.lerp(self.end, 0.5)

    def heading(self) -> float:
        """Heading of the segment in radians, measured from the +x axis.

        Degenerate segments return 0.0.
        """
        if self.is_degenerate:
            return 0.0
        d = self.end - self.start
        return math.atan2(d.y, d.x)


__all__ = [
    "Segment",
]
