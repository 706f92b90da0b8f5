"""Multi-leg trips: route changes mid-journey (paper §3.1).

"If during the trip the object changes its route, then it sends a
position update message that includes the identification of the new
route to be stored in P.route.  If we define the route distance between
two points on different routes to be infinite, then this will trigger a
position update whenever the object changes routes."

A :class:`MultiLegTrip` strings several routes into one journey under a
single speed curve.  :class:`MultiLegDriver` drives it against a
database: within a leg its :class:`~repro.sim.vehicle.OnboardComputer`
(in global travel coordinates) steps the normal update policy; crossing
a leg boundary forces an update on that same computer — an infinite
deviation, the infinite-route-distance rule — carrying the new route
id, which also swaps the o-plane in the time-space index onto the new
route.  The computer's event list is therefore the journey's whole
message history, forced and policy-triggered alike.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.policy import UpdateDecision, UpdatePolicy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import SimulationError
from repro.geometry.point import Point
from repro.routes.route import Route
from repro.sim.clock import SimulationClock
from repro.sim.speed_curves import SpeedCurve
from repro.sim.trip import (
    Trip,
    interpolate_distance,
    interpolate_distance_many,
)
from repro.sim.vehicle import OnboardComputer
from repro.units import DEFAULT_TICK_MINUTES


@dataclass(frozen=True, slots=True)
class Leg:
    """One leg of a journey: a route travelled in a direction."""

    route: Route
    direction: int = 0

    def __post_init__(self) -> None:
        if self.direction not in (0, 1):
            raise SimulationError(
                f"direction must be 0 or 1, got {self.direction}"
            )


class MultiLegTrip:
    """A journey over consecutive routes under one speed curve.

    The legs are travelled end to end: the object enters leg ``i+1`` at
    travel distance ``sum of lengths of legs 0..i``.  The speed curve's
    total distance must fit within the combined length.
    """

    def __init__(self, legs: list[Leg], curve: SpeedCurve) -> None:
        if not legs:
            raise SimulationError("a multi-leg trip needs at least one leg")
        self.legs = list(legs)
        self.curve = curve
        self._boundaries = [0.0]
        for leg in legs:
            self._boundaries.append(self._boundaries[-1] + leg.route.length)
        # Reuse the single-route trip's integrator for the profile.
        self._times, self._cumulative = Trip._integrate(curve)
        if self.total_distance > self.total_length + 1e-9:
            raise SimulationError(
                f"journey distance {self.total_distance:.2f} exceeds the "
                f"combined leg length {self.total_length:.2f}"
            )

    @property
    def duration(self) -> float:
        return self.curve.duration

    @property
    def total_length(self) -> float:
        """Combined length of all legs."""
        return self._boundaries[-1]

    @property
    def total_distance(self) -> float:
        """Distance the speed curve actually covers."""
        return self._cumulative.item(-1)

    @property
    def max_speed(self) -> float:
        # Memoised by the curve, so reading it every tick costs a lookup.
        return self.curve.max_speed()

    def distance_travelled(self, t: float) -> float:
        """Global travel distance at time ``t`` (interpolated)."""
        return interpolate_distance(
            self._times, self._cumulative, self.curve.duration, t
        )

    def distance_travelled_many(
            self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """``distance_travelled`` at every time of ``ts``: the same floats."""
        return interpolate_distance_many(
            self._times, self._cumulative, self.curve.duration, ts
        )

    def speed(self, t: float) -> float:
        return self.curve.speed(t)

    def leg_index_at(self, travel: float) -> int:
        """Index of the leg containing global travel distance ``travel``."""
        idx = bisect.bisect_right(self._boundaries, travel) - 1
        return min(max(idx, 0), len(self.legs) - 1)

    def locate(self, t: float) -> tuple[int, float]:
        """``(leg index, travel within that leg)`` at time ``t``."""
        travel = self.distance_travelled(t)
        idx = self.leg_index_at(travel)
        return idx, travel - self._boundaries[idx]

    def position(self, t: float) -> Point:
        """Plane position at time ``t``."""
        idx, within = self.locate(t)
        leg = self.legs[idx]
        return leg.route.travel_point(
            min(within, leg.route.length), leg.direction
        )


@dataclass(frozen=True, slots=True)
class LegTransition:
    """A route-change update recorded by the driver."""

    time: float
    from_route: str
    to_route: str


class MultiLegDriver:
    """Drives one multi-leg vehicle against a database.

    Every update, policy-triggered or forced by a leg boundary, goes
    through one onboard computer and then to the database; a forced
    one carries the new route id.
    """

    def __init__(self, object_id: str, class_name: str,
                 trip: MultiLegTrip, policy: UpdatePolicy,
                 database: MovingObjectDatabase,
                 dt: float = DEFAULT_TICK_MINUTES) -> None:
        self.object_id = object_id
        self.trip = trip
        self.policy = policy
        self.database = database
        self.dt = dt
        self.transitions: list[LegTransition] = []
        self.policy_updates = 0

        for leg in trip.legs:
            if leg.route.route_id not in database.routes:
                database.register_route(leg.route)
        database.insert_moving_object(
            object_id=object_id,
            class_name=class_name,
            route_id=trip.legs[0].route.route_id,
            t=0.0,
            position=trip.position(0.0),
            direction=trip.legs[0].direction,
            speed=trip.speed(0.0),
            policy=policy,
            max_speed=trip.max_speed,
        )
        self._leg_index = 0
        self.computer = OnboardComputer(trip, policy)  # type: ignore[arg-type]

    def run(self) -> int:
        """Simulate the whole journey; returns total messages sent."""
        clock = SimulationClock(self.trip.duration, self.dt)
        for _, t in clock.ticks():
            self._tick(t)
        return self.database.message_count(self.object_id)

    def _tick(self, t: float) -> None:
        leg_index = self.trip.leg_index_at(self.trip.distance_travelled(t))
        route_change = leg_index != self._leg_index
        if route_change:
            # Infinite route distance: an update whatever the policy says.
            self.transitions.append(LegTransition(
                time=t,
                from_route=self.trip.legs[self._leg_index].route.route_id,
                to_route=self.trip.legs[leg_index].route.route_id,
            ))
            self._leg_index = leg_index
            decision = UpdateDecision(
                send=True, speed_to_declare=self.trip.speed(t),
                threshold=0.0, fitted_slope=0.0, fitted_delay=0.0)
            self.computer.apply_update(t, decision, float("inf"))
        else:
            _, decision = self.computer.step(t)
            self.policy_updates += decision.send
        if decision.send:
            position = self.trip.position(t)
            leg = self.trip.legs[leg_index]
            self.database.process_update(PositionUpdateMessage(
                object_id=self.object_id,
                time=t,
                x=position.x,
                y=position.y,
                speed=decision.speed_to_declare,
                route_id=leg.route.route_id if route_change else None,
                direction=leg.direction if route_change else None,
            ))

__all__ = [
    "Leg",
    "LegTransition",
    "MultiLegDriver",
    "MultiLegTrip",
]
