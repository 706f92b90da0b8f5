"""Uncertainty intervals — the route segment an object must lie on (§4.1).

Given a position attribute with declared speed ``v`` and the policy's
deviation bounds, the object's distance from its last reported position
``t`` time units after the update lies in

    [ l(t), u(t) ]  =  [ v t - BS(t),  v t + BF(t) ]

where ``BS``/``BF`` bound the slow/fast deviation.  The *uncertainty
interval* is the piece of route between the points at those two travel
distances: "as far as the DBMS knows, at time t the moving object can
be at any point in the uncertainty interval, and nowhere else".

This module keeps intervals in travel coordinates (distance along the
route in the direction of travel, measured from the route's travel
origin) and converts to geometry on demand; the geometry is what the
may/must query semantics and the o-plane index consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import DeviationBounds
from repro.core.position import PositionAttribute
from repro.errors import PolicyError
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.routes.route import Route


@dataclass(frozen=True, slots=True)
class UncertaintyInterval:
    """A closed interval of travel distances along a specific route."""

    route_id: str
    direction: int
    #: Travel distance of the interval's near end (miles from the travel
    #: origin of the route); ``lower <= upper``.
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise PolicyError(
                f"inverted uncertainty interval [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        """Length of the interval in miles (the position uncertainty)."""
        return max(self.upper - self.lower, 0.0)

    @property
    def midpoint_travel(self) -> float:
        return (self.lower + self.upper) / 2.0

    def contains_travel(self, travel: float) -> bool:
        """True when a travel distance lies inside the closed interval."""
        return self.lower - 1e-12 <= travel <= self.upper + 1e-12

    def endpoints(self, route: Route) -> tuple[Point, Point]:
        """The interval's two boundary points as plane geometry."""
        self._check_route(route)
        return (
            route.travel_point(self.lower, self.direction),
            route.travel_point(self.upper, self.direction),
        )

    def geometry(self, route: Route) -> Polyline:
        """The interval as a piece of route geometry.

        This is the line segment (in general, polyline) between the
        points ``l(t)`` and ``u(t)`` that §4 intersects with query
        polygons.
        """
        self._check_route(route)
        return route.interval_polyline(self.lower, self.upper, self.direction)

    def _check_route(self, route: Route) -> None:
        if route.route_id != self.route_id:
            raise PolicyError(
                f"interval is on route {self.route_id!r}, got {route.route_id!r}"
            )


def uncertainty_interval(attribute: PositionAttribute, route: Route,
                         bounds: DeviationBounds, t: float,
                         start_travel: float | None = None) -> UncertaintyInterval:
    """The uncertainty interval of an object at absolute time ``t``.

    ``attribute`` is the object's position attribute; ``bounds`` the
    deviation bounds the DBMS derived from its policy and declared
    speed; ``t`` an absolute time at or after the last update.  The
    interval is clamped to the route (the object cannot travel past the
    route's ends).  ``start_travel`` is ``attribute.start_travel(route)``
    when the caller already has it (it is a constant of the installed
    update); it is computed here otherwise.
    """
    elapsed = attribute.elapsed(t)
    if start_travel is None:
        start_travel = attribute.start_travel(route)
    center = start_travel + attribute.speed * elapsed
    lower = center - bounds.slow(elapsed)
    upper = center + bounds.fast(elapsed)
    lower = min(max(lower, 0.0), route.length)
    upper = min(max(upper, 0.0), route.length)
    # The slow bound never exceeds v*t, so lower <= center; after route
    # clamping the order is preserved, but guard against float dust.
    if lower > upper:
        lower = upper
    return UncertaintyInterval(
        route_id=route.route_id,
        direction=attribute.direction,
        lower=lower,
        upper=upper,
    )


__all__ = [
    "UncertaintyInterval",
    "uncertainty_interval",
]
