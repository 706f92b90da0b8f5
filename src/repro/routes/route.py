"""Identified routes and the route database.

A :class:`Route` wraps a :class:`~repro.geometry.polyline.Polyline` with
an identifier and the paper's direction convention: the ``P.direction``
sub-attribute is a binary indicator whose two values correspond to the
two endpoints of the route (§2).  Direction 0 travels from the
polyline's first vertex towards its last; direction 1 travels the other
way.  All route-distance arithmetic in the library is then expressed in
*travel coordinates*: distance travelled from the start-of-travel
endpoint, which increases monotonically during a trip regardless of
direction.

:class:`RouteDatabase` is the DBMS-side catalogue of routes; position
attributes reference routes by id (the paper's "pointer to a line
spatial object").
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import RouteError, SpecReader
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline


class Route:
    """A named piecewise-linear route with direction-aware queries."""

    __slots__ = ("_route_id", "_polyline", "_name")

    def __init__(self, route_id: str, polyline: Polyline, name: str | None = None) -> None:
        if not route_id:
            raise RouteError("route_id must be a non-empty string")
        self._route_id = route_id
        self._polyline = polyline
        self._name = name or route_id

    def to_spec(self) -> dict[str, Any]:
        """The route as a trace event and a snapshot both store it."""
        return {"route_id": self._route_id, "name": self._name,
                "vertices": [[v.x, v.y] for v in self._polyline.vertices]}

    @classmethod
    def from_spec(cls, spec: Any) -> "Route":
        """Inverse of :meth:`to_spec`; bad input is a :class:`RouteError`."""
        fields = SpecReader(spec, RouteError, "route")
        vertices = fields.pairs("vertices")
        return cls(fields.get("route_id", str),
                   Polyline(Point(x, y) for x, y in vertices),
                   name=fields.get("name", str, None))

    @property
    def route_id(self) -> str:
        return self._route_id

    @property
    def name(self) -> str:
        return self._name

    @property
    def polyline(self) -> Polyline:
        return self._polyline

    @property
    def length(self) -> float:
        """Total route length in miles."""
        return self._polyline.length

    def endpoint(self, direction: int) -> Point:
        """The start-of-travel endpoint for ``direction`` (0 or 1)."""
        self._check_direction(direction)
        return self._polyline.start if direction == 0 else self._polyline.end

    def travel_point(self, travel_distance: float, direction: int = 0) -> Point:
        """The point ``travel_distance`` miles into a trip along ``direction``."""
        self._check_direction(direction)
        if direction == 0:
            return self._polyline.point_at(travel_distance)
        return self._polyline.point_at(self._polyline.length - travel_distance)

    def travel_distance_of(self, point: Point, direction: int = 0,
                           tolerance: float = 1e-6) -> float:
        """Travel distance of an on-route ``point`` for ``direction``."""
        self._check_direction(direction)
        arc = self._polyline.arc_length_of(point, tolerance)
        return arc if direction == 0 else self._polyline.length - arc

    def route_distance(self, p1: Point, p2: Point, tolerance: float = 1e-6) -> float:
        """Route-distance between two on-route points (direction-free)."""
        return self._polyline.route_distance(p1, p2, tolerance)

    def _arc_interval(self, from_travel: float, to_travel: float,
                      direction: int) -> tuple[float, float]:
        """Two travel distances as arc lengths along the polyline."""
        self._check_direction(direction)
        if direction == 0:
            return from_travel, to_travel
        length = self._polyline.length
        return (length - max(from_travel, to_travel),
                length - min(from_travel, to_travel))

    def interval_polyline(self, from_travel: float, to_travel: float,
                          direction: int = 0) -> Polyline:
        """The route strip between two travel distances, as geometry.

        Used to materialise uncertainty intervals for polygon queries.
        """
        return self._polyline.subline(
            *self._arc_interval(from_travel, to_travel, direction))

    def interval_rect(self, from_travel: float, to_travel: float,
                      direction: int = 0) -> Rect2D:
        """That strip's bounding rectangle, without the strip.

        Bit for bit ``interval_polyline(...).bounding_rect()``; o-plane
        box decomposition asks for nothing else.
        """
        return self._polyline.subline_rect(
            *self._arc_interval(from_travel, to_travel, direction))

    def _check_direction(self, direction: int) -> None:
        if direction not in (0, 1):
            raise RouteError(f"direction must be 0 or 1, got {direction!r}")

    def __repr__(self) -> str:
        return f"Route({self._route_id!r}, length={self.length:.2f})"


class RouteDatabase:
    """The DBMS-side catalogue of routes, keyed by route id."""

    def __init__(self) -> None:
        self._routes: dict[str, Route] = {}

    def add(self, route: Route) -> None:
        """Register ``route``; duplicate ids are an error."""
        if route.route_id in self._routes:
            raise RouteError(f"duplicate route id {route.route_id!r}")
        self._routes[route.route_id] = route

    def get(self, route_id: str) -> Route:
        """Look up a route; unknown ids raise :class:`RouteError`."""
        try:
            return self._routes[route_id]
        except KeyError:
            raise RouteError(f"unknown route id {route_id!r}") from None

    def __contains__(self, route_id: str) -> bool:
        return route_id in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def ids(self) -> list[str]:
        """All registered route ids."""
        return list(self._routes)

__all__ = [
    "Route",
    "RouteDatabase",
]
