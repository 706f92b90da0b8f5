"""Axis-aligned bounding boxes in two and three dimensions.

``Rect2D`` bounds planar geometry; ``Box3D`` bounds regions of the
paper's (x, y, t) time-space and is the key type stored in the 3-D
R-tree (:mod:`repro.index.rtree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import GeometryError
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect2D:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        # Written as `not (min <= max ...)` so a NaN coordinate fails too.
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise GeometryError(
                f"inverted or NaN Rect2D: ({self.min_x}, {self.min_y}) ... "
                f"({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect2D":
        """The tightest rectangle containing every point in ``points``."""
        pts = list(points)
        if not pts:
            raise GeometryError("Rect2D.from_points requires at least one point")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def intersects(self, other: "Rect2D") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def contains_rect(self, other: "Rect2D") -> bool:
        """True when ``other`` lies entirely inside this closed rectangle."""
        return (
            self.min_x <= other.min_x
            and other.max_x <= self.max_x
            and self.min_y <= other.min_y
            and other.max_y <= self.max_y
        )

    def union(self, other: "Rect2D") -> "Rect2D":
        """The tightest rectangle containing both rectangles."""
        return Rect2D(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "Rect2D":
        """The rectangle grown by ``margin`` on every side."""
        return Rect2D(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )


@dataclass(frozen=True, slots=True)
class Box3D:
    """An axis-aligned box in (x, y, t) time-space.

    The third axis is time; a planar region "at time t0" (the paper's
    ``R_G(t0)``) is represented as a box with ``min_t == max_t == t0``.
    """

    min_x: float
    min_y: float
    min_t: float
    max_x: float
    max_y: float
    max_t: float

    def __post_init__(self) -> None:
        # As in Rect2D: a NaN coordinate fails the test.
        if not (
            self.min_x <= self.max_x
            and self.min_y <= self.max_y
            and self.min_t <= self.max_t
        ):
            raise GeometryError(
                f"inverted or NaN Box3D: ({self.min_x}, {self.min_y}, {self.min_t}) ... "
                f"({self.max_x}, {self.max_y}, {self.max_t})"
            )

    @classmethod
    def from_rect(cls, rect: Rect2D, min_t: float, max_t: float) -> "Box3D":
        """A time-extruded box covering ``rect`` during ``[min_t, max_t]``."""
        return cls(rect.min_x, rect.min_y, min_t, rect.max_x, rect.max_y, max_t)

    @property
    def rect(self) -> Rect2D:
        """The spatial footprint of the box."""
        return Rect2D(self.min_x, self.min_y, self.max_x, self.max_y)

    @property
    def volume(self) -> float:
        """Product of the three extents (zero for slabs and planes)."""
        return (
            (self.max_x - self.min_x)
            * (self.max_y - self.min_y)
            * (self.max_t - self.min_t)
        )

    @property
    def margin(self) -> float:
        """Sum of the three extents (the R-tree's perimeter surrogate)."""
        return (
            (self.max_x - self.min_x)
            + (self.max_y - self.min_y)
            + (self.max_t - self.min_t)
        )

    def intersects(self, other: "Box3D") -> bool:
        """True when the closed boxes share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
            and self.min_t <= other.max_t
            and other.min_t <= self.max_t
        )

    def contains(self, other: "Box3D") -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.min_t <= other.min_t
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
            and self.max_t >= other.max_t
        )

    def union(self, other: "Box3D") -> "Box3D":
        """The tightest box containing both boxes."""
        return Box3D(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            min(self.min_t, other.min_t),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
            max(self.max_t, other.max_t),
        )

    def union_volume_increase(self, other: "Box3D") -> float:
        """Volume added to ``self`` by enlarging it to cover ``other``.

        This is the R-tree's ChooseLeaf criterion.
        """
        return self.union(other).volume - self.volume

    def contains_point(self, x: float, y: float, t: float) -> bool:
        """True when the point ``(x, y, t)`` lies inside or on the boundary."""
        return (
            self.min_x <= x <= self.max_x
            and self.min_y <= y <= self.max_y
            and self.min_t <= t <= self.max_t
        )


__all__ = [
    "Box3D",
    "Rect2D",
]
