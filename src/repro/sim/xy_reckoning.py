"""Per-coordinate (x, y) dead reckoning — the §5 counter-example.

The paper's related-work section argues against modeling a moving
object with two independent dynamic attributes (one per coordinate):

"this may be unsatisfactory if the object is moving along a winding
route.  In this case the speed along each coordinate may change very
frequently (since changes in the direction of the motion vector result
in changes in the projection of the motion vector on each one of the
coordinates), necessitating frequent updates, even if the vehicle's
speed remains constant."

This module implements that alternative faithfully so the claim can be
*measured*: the DBMS stores the last reported point and a velocity
vector; the reckoned position extrapolates linearly in the plane; the
vehicle updates (reporting its position and current velocity vector)
whenever the Euclidean deviation reaches a threshold.  On a winding
route at constant speed the route-based model of §2 sends no updates
at all, while this model updates at every sufficient bend.

Only the plane model has a loop of its own here.  The route model *is*
the ``fixed-threshold`` policy, so :func:`simulate_route_dead_reckoning`
runs it through the policy engine, onboard computer and all — including
the computer's snap of deviations of at most 1e-9 miles to zero, which
can move ``avg_deviation`` by a few 1e-10 relative against a loop that
does not snap; ``num_updates`` and ``max_deviation`` are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import FixedThresholdPolicy
from repro.errors import SimulationError
from repro.geometry.point import Point
from repro.sim.clock import SimulationClock
from repro.sim.engine import simulate_trip
from repro.sim.trip import Trip
from repro.units import DEFAULT_TICK_MINUTES


@dataclass(frozen=True, slots=True)
class XYReckoningResult:
    """Outcome of simulating per-coordinate dead reckoning on a trip."""

    threshold: float
    num_updates: int
    avg_deviation: float
    max_deviation: float
    duration: float

    @property
    def updates_per_hour(self) -> float:
        return self.num_updates * 60.0 / self.duration


def velocity_vector(trip: Trip, t: float) -> Point:
    """The object's plane velocity at time ``t`` (miles/minute vector)."""
    travel = trip.travel_at(t)
    arc = (
        travel if trip.direction == 0
        else trip.route.length - travel
    )
    tangent = trip.route.polyline.tangent_at(arc)
    if trip.direction == 1:
        tangent = Point(-tangent.x, -tangent.y)
    speed = trip.speed(t)
    return Point(tangent.x * speed, tangent.y * speed)


def simulate_xy_dead_reckoning(trip: Trip, threshold: float,
                               dt: float = DEFAULT_TICK_MINUTES) -> XYReckoningResult:
    """Run per-coordinate dead reckoning over a trip.

    The vehicle reports ``(position, velocity vector)`` at trip start
    and whenever the Euclidean deviation from the linear extrapolation
    reaches ``threshold`` miles.  Returns message and deviation
    statistics comparable with the route-based policies'.
    """
    if not threshold > 0:
        raise SimulationError(f"threshold must be positive, got {threshold}")
    clock = SimulationClock(trip.duration, dt)
    base_point = trip.position(0.0)
    base_velocity = velocity_vector(trip, 0.0)
    base_time = 0.0

    num_updates = 0
    deviation_integral = 0.0
    max_deviation = 0.0

    for _, t in clock.ticks():
        elapsed = t - base_time
        reckoned = Point(
            base_point.x + base_velocity.x * elapsed,
            base_point.y + base_velocity.y * elapsed,
        )
        actual = trip.position(t)
        deviation = reckoned.distance_to(actual)
        deviation_integral += deviation * dt
        max_deviation = max(max_deviation, deviation)
        if deviation >= threshold * (1.0 - 1e-12):
            num_updates += 1
            base_point = actual
            base_velocity = velocity_vector(trip, t)
            base_time = t

    return XYReckoningResult(
        threshold=threshold,
        num_updates=num_updates,
        avg_deviation=deviation_integral / clock.duration,
        max_deviation=max_deviation,
        duration=clock.duration,
    )


def simulate_route_dead_reckoning(trip: Trip, threshold: float,
                                  dt: float = DEFAULT_TICK_MINUTES) -> XYReckoningResult:
    """The route-based equivalent, for a like-for-like comparison.

    Identical trigger (deviation >= threshold, report current speed),
    but the deviation is route-distance from the dead-reckoned travel
    position — the §2 model, i.e. the ``fixed-threshold`` policy run by
    the policy engine (update cost 0: only messages are counted).
    """
    if not threshold > 0:
        raise SimulationError(f"threshold must be positive, got {threshold}")
    metrics = simulate_trip(
        trip, FixedThresholdPolicy(0.0, bound=threshold), dt).metrics
    return XYReckoningResult(
        threshold=threshold,
        num_updates=metrics.num_updates,
        avg_deviation=metrics.avg_deviation,
        max_deviation=metrics.max_deviation,
        duration=metrics.duration,
    )

__all__ = [
    "XYReckoningResult",
    "simulate_route_dead_reckoning",
    "simulate_xy_dead_reckoning",
    "velocity_vector",
]
