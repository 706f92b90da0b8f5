"""The position attribute of §2 and its database-position semantics.

A mobile point object's position attribute has seven sub-attributes::

    P.starttime          time of the last position update
    P.route              (id of) the route the object moves along
    P.x.startposition    x of the object's position at P.starttime
    P.y.startposition    y of the object's position at P.starttime
    P.direction          binary travel direction along the route
    P.speed              declared speed (miles/minute)
    P.policy             name of the update policy in force

The *database position* at time ``t >= starttime`` is the point on the
route at route-distance ``speed * (t - starttime)`` from the start
position, in the travel direction.  This is the position the DBMS
returns for a query at time ``t`` — no update messages needed while the
object keeps (approximately) its declared speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import PolicyError, RouteError
from repro.geometry.point import Point
from repro.routes.route import Route


@dataclass(frozen=True, slots=True)
class PositionAttribute:
    """The seven sub-attributes of a mobile object's position (paper §2).

    Immutable: a position update replaces the whole attribute (see
    :meth:`updated`), which mirrors the paper's assumption that every
    update rewrites ``starttime``, the start position and ``speed``.
    """

    starttime: float
    route_id: str
    start_x: float
    start_y: float
    direction: int
    speed: float
    policy: str

    def __post_init__(self) -> None:
        if self.direction not in (0, 1):
            raise RouteError(f"direction must be 0 or 1, got {self.direction!r}")
        if self.speed < 0:
            raise PolicyError(f"declared speed must be nonnegative, got {self.speed}")

    @property
    def start_point(self) -> Point:
        """The position of the object at ``starttime``."""
        return Point(self.start_x, self.start_y)

    def elapsed(self, t: float) -> float:
        """Time units since the last update, at query time ``t``."""
        if t < self.starttime:
            raise PolicyError(
                f"query time {t} precedes last update at {self.starttime}"
            )
        return t - self.starttime

    def database_travel_offset(self, t: float) -> float:
        """Dead-reckoned route-distance travelled since ``starttime``."""
        return self.speed * self.elapsed(t)

    def start_travel(self, route: Route) -> float:
        """Travel distance of the start position from ``route``'s travel origin.

        An O(segments) projection of ``(start_x, start_y)`` onto the
        route, and a constant of the attribute: callers that answer many
        queries against one installed update compute it once
        (:meth:`repro.dbms.moving_object.MovingObjectRecord.start_travel`)
        and hand it back to :meth:`database_position` and
        :func:`repro.core.uncertainty.uncertainty_interval`.
        """
        self._check_route(route)
        return route.travel_distance_of(self.start_point, self.direction)

    def database_position(self, route: Route, t: float,
                          start_travel: float | None = None) -> Point:
        """The database position at time ``t`` (paper §2).

        ``route`` must be the route this attribute references; the
        dead-reckoned travel distance is clamped to the route's end, so
        an object that reaches its destination simply stays there as far
        as the DBMS is concerned.  ``start_travel`` is
        :meth:`start_travel` of ``route`` when the caller already has
        it; it is computed here otherwise.
        """
        self._check_route(route)
        if start_travel is None:
            start_travel = self.start_travel(route)
        return route.travel_point(
            start_travel + self.database_travel_offset(t), self.direction
        )

    def database_travel_distance(self, route: Route, t: float) -> float:
        """Dead-reckoned travel distance from the route's travel origin."""
        return min(
            self.start_travel(route) + self.database_travel_offset(t),
            route.length,
        )

    def updated(self, t: float, position: Point, speed: float,
                route_id: str | None = None, direction: int | None = None,
                policy: str | None = None) -> "PositionAttribute":
        """The attribute after a position update at time ``t``.

        Only the components carried by the update message change; the
        paper allows an update to also switch route, direction or policy.
        """
        return replace(
            self,
            starttime=t,
            start_x=position.x,
            start_y=position.y,
            speed=speed,
            route_id=route_id if route_id is not None else self.route_id,
            direction=direction if direction is not None else self.direction,
            policy=policy if policy is not None else self.policy,
        )

    def _check_route(self, route: Route) -> None:
        if route.route_id != self.route_id:
            raise RouteError(
                f"position attribute references route {self.route_id!r} "
                f"but was given route {route.route_id!r}"
            )


__all__ = [
    "PositionAttribute",
]
