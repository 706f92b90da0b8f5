"""Simple polygons — the range-query regions of the paper's §4.

Queries of the form "retrieve the objects whose current position is in
the polygon G" need three geometric predicates, all provided here:

* point containment (is a dead-reckoned position inside G?),
* segment intersection (does an uncertainty interval *touch* G? — the
  paper's **may be in** semantics, Theorem 5),
* segment containment (is an uncertainty interval *entirely inside* G?
  — the **must be in** semantics, Theorem 6).

Polygons are simple (non-self-intersecting), given by their boundary
vertices in either orientation, and treated as closed regions (boundary
points count as inside).

The predicates are thin wrappers over :mod:`repro.geometry.kernels`: a
polygon builds its edge-coordinate rows once, at construction, and the
float functions there do the work.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import GeometryError
from repro.geometry import kernels
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


class Polygon:
    """An immutable simple polygon with containment/intersection queries."""

    __slots__ = ("_vertices", "_bbox", "_edges", "_bounds")

    def __init__(self, vertices: Iterable[Point]) -> None:
        verts = tuple(vertices)
        if len(verts) >= 2 and verts[0].almost_equal(verts[-1]):
            verts = verts[:-1]
        if len(verts) < 3:
            raise GeometryError("a polygon needs at least three distinct vertices")
        self._vertices = verts
        self._bbox = bbox = Rect2D.from_points(verts)
        #: The kernels' view of the region: boundary rows in ring order
        #: (closing edge last) and the bounding rectangle.
        self._edges: kernels.Edges = tuple(
            (a.x, a.y, b.x, b.y)
            for a, b in zip(verts, verts[1:] + verts[:1])
        )
        self._bounds: kernels.Bounds = (
            bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y
        )

    @classmethod
    def from_coordinates(cls, coords: Iterable[tuple[float, float]]) -> "Polygon":
        """Build a polygon from ``(x, y)`` tuples."""
        return cls(Point(x, y) for x, y in coords)

    @classmethod
    def rectangle(cls, min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """An axis-aligned rectangular polygon."""
        if min_x >= max_x or min_y >= max_y:
            raise GeometryError("rectangle needs min < max on both axes")
        return cls(
            [
                Point(min_x, min_y),
                Point(max_x, min_y),
                Point(max_x, max_y),
                Point(min_x, max_y),
            ]
        )

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def bounding_rect(self) -> Rect2D:
        """The tightest axis-aligned rectangle containing the polygon."""
        return self._bbox

    def edges(self) -> list[Segment]:
        """The polygon's boundary segments, in order, closing the ring."""
        verts = self._vertices
        return [
            Segment(verts[i], verts[(i + 1) % len(verts)])
            for i in range(len(verts))
        ]

    def area(self) -> float:
        """Unsigned polygon area via the shoelace formula."""
        total = 0.0
        verts = self._vertices
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            total += a.cross(b)
        return abs(total) / 2.0

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside the polygon or on its boundary.

        Uses the even-odd ray-casting rule with an explicit boundary check
        so that boundary points are deterministically *inside* (the paper
        treats regions as closed).
        """
        return kernels.ring_contains_point(
            self._edges, self._bounds, point.x, point.y
        )

    def intersects_segment(self, segment: Segment) -> bool:
        """True when the closed polygon region touches the segment.

        This is the geometric core of Theorem 5 ("may be in"): an
        uncertainty interval intersects G iff either an endpoint lies in
        G or the interval crosses G's boundary.
        """
        start, end = segment.start, segment.end
        return kernels.ring_intersects_segment(
            self._edges, self._bounds, start.x, start.y, end.x, end.y
        )

    def contains_segment(self, segment: Segment) -> bool:
        """True when the whole segment lies inside the closed polygon.

        For a *convex* polygon, endpoint containment suffices.  For
        general simple polygons the segment might dip outside between
        contained endpoints, so we additionally check midpoints of the
        pieces cut by boundary crossings.
        """
        start, end = segment.start, segment.end
        return kernels.ring_contains_segment(
            self._edges, self._bounds, start.x, start.y, end.x, end.y
        )

    def intersects_polyline(self, polyline: Polyline) -> bool:
        """True when any part of ``polyline`` touches the closed polygon."""
        return kernels.ring_intersects_chain(
            self._edges, self._bounds, polyline.xs, polyline.ys
        )

    def contains_polyline(self, polyline: Polyline) -> bool:
        """True when the whole ``polyline`` lies inside the closed polygon."""
        return kernels.ring_contains_chain(
            self._edges, self._bounds, polyline.xs, polyline.ys
        )

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self.area():.3f})"


__all__ = [
    "Polygon",
]
