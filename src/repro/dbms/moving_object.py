"""Server-side records of mobile objects.

For each mobile object the DBMS holds its current
:class:`~repro.core.position.PositionAttribute`, the policy instance it
declared (``P.policy`` — the paper assumes the DBMS knows the policy,
including its parameters, which is what lets it bound the deviation),
and the object's maximum speed ``V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bounds import DeviationBounds, bounds_for_policy
from repro.core.policy import UpdatePolicy
from repro.core.position import PositionAttribute
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.errors import PolicyError
from repro.geometry.point import Point
from repro.routes.route import Route


@dataclass
class MovingObjectRecord:
    """Everything the DBMS knows about one mobile object."""

    object_id: str
    class_name: str
    attribute: PositionAttribute
    policy: UpdatePolicy
    max_speed: float
    #: Update generation: bumped on every installed position update.  It
    #: restarts at 0 when an id is removed and inserted again, so it does
    #: not identify an installed state on its own; caches of derived
    #: values tag entries with the ``attribute`` object instead (frozen,
    #: replaced by every update, compared with ``is``).
    generation: int = 0
    #: ``(attribute, route, start travel distance)`` of the last
    #: :meth:`start_travel` call.  Valid only while *these very objects*
    #: are the record's attribute and the route asked about, so nothing
    #: has to clear it: every installed update (and a snapshot load, and
    #: a re-inserted object's fresh record) brings a new attribute object.
    _start_travel: tuple[PositionAttribute, Route, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_speed < 0:
            raise PolicyError(
                f"max speed must be nonnegative, got {self.max_speed}"
            )

    def bounds(self) -> DeviationBounds:
        """Deviation bounds implied by the current declared speed."""
        return bounds_for_policy(
            self.policy, self.attribute.speed, self.max_speed
        )

    def start_travel(self, route: Route) -> float:
        """Travel distance of ``P.startposition`` along ``route``, memoised.

        The projection is O(route segments) and depends only on the
        installed position attribute and the route, so it is computed
        once per installed update and reused by every position, range,
        proximity and nearest query until the next one.
        """
        memo = self._start_travel
        attribute = self.attribute
        if memo is None or memo[0] is not attribute or memo[1] is not route:
            memo = (attribute, route, attribute.start_travel(route))
            self._start_travel = memo
        return memo[2]

    def database_position(self, route: Route, t: float) -> Point:
        """Dead-reckoned position at time ``t``."""
        return self.attribute.database_position(
            route, t, self.start_travel(route)
        )

    def uncertainty(self, route: Route, t: float) -> UncertaintyInterval:
        """The object's uncertainty interval at time ``t``."""
        return uncertainty_interval(
            self.attribute, route, self.bounds(), t, self.start_travel(route)
        )

    def apply_update(self, t: float, position: Point, speed: float,
                     route_id: str | None = None,
                     direction: int | None = None,
                     policy: str | None = None) -> None:
        """Install a position update (replaces the position attribute)."""
        self.attribute = self.attribute.updated(
            t, position, speed, route_id=route_id, direction=direction,
            policy=policy,
        )
        self.generation += 1

__all__ = [
    "MovingObjectRecord",
]
