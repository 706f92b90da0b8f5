"""Trips: a speed curve travelled along a route.

A :class:`Trip` binds a :class:`~repro.sim.speed_curves.SpeedCurve` to
a :class:`~repro.routes.route.Route` (and travel direction) and exposes
the object's *actual* kinematics: travel distance and plane position as
functions of time.  Travel distance is the integral of the speed curve,
precomputed at a fine internal resolution and interpolated, so repeated
queries are O(1)-ish and the integration error is far below any policy
threshold.

Policy simulations (:mod:`repro.sim.engine`) work purely in travel
coordinates and do not need a route; :meth:`Trip.synthetic` builds a
trip with an auto-generated straight route long enough for the whole
journey, which is what the §3.4 experiments use.  Fleet simulations use
real network routes so that range queries have interesting geometry.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.geometry.point import Point
from repro.routes.generators import straight_route
from repro.routes.route import Route
from repro.sim.speed_curves import SpeedCurve

#: Internal integration resolution (minutes).  One second.
_INTEGRATION_DT = 1.0 / 60.0

_TIME_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def time_grid(steps: int, dt: float) -> np.ndarray:
    """Read-only ``arange(steps + 1) * dt``: one array per layout, shared
    by every trip and tick grid on it while one of them lives."""
    times = _TIME_GRIDS.get((steps, dt))
    if times is None:
        times = np.arange(steps + 1) * dt
        times.setflags(write=False)
        _TIME_GRIDS[steps, dt] = times
    return times


def interpolate_distance(times: Sequence[float] | np.ndarray,
                         cumulative: Sequence[float] | np.ndarray,
                         duration: float, t: float) -> float:
    """Distance travelled at ``t``, linear between the integration samples.

    Shared by :class:`Trip` and
    :class:`~repro.sim.multileg.MultiLegTrip`, which keep the same
    ``(times, cumulative)`` profile from :meth:`Trip._integrate`.
    """
    if not -1e-9 <= t <= duration + 1e-9:
        raise SimulationError(
            f"time {t} outside trip duration [0, {duration}]"
        )
    t = min(max(t, 0.0), duration)
    idx = bisect.bisect_right(times, t) - 1
    idx = min(max(idx, 0), len(times) - 2)
    t0, t1 = float(times[idx]), float(times[idx + 1])
    d0, d1 = float(cumulative[idx]), float(cumulative[idx + 1])
    if t1 <= t0:
        return d0
    return d0 + (d1 - d0) * (t - t0) / (t1 - t0)


def interpolate_distance_many(times: Sequence[float] | np.ndarray,
                              cumulative: Sequence[float] | np.ndarray,
                              duration: float,
                              ts: Sequence[float] | np.ndarray) -> np.ndarray:
    """:func:`interpolate_distance` at every time of ``ts``, as an array.

    The same floats: the segment index is the array form of
    ``bisect_right(times, t) - 1`` and the interpolation applies the
    scalar expression's operations in the scalar order.  Raises
    :class:`SimulationError` when any time lies outside the trip, as
    the scalar call does.
    """
    ts = np.asarray(ts, dtype=float)
    outside = ~((ts >= -1e-9) & (ts <= duration + 1e-9))
    if outside.any():
        raise SimulationError(
            f"time {ts[outside].flat[0]} outside trip duration [0, {duration}]"
        )
    ts = np.minimum(np.maximum(ts, 0.0), duration)
    times = np.asarray(times, dtype=float)
    cumulative = np.asarray(cumulative, dtype=float)
    idx = np.searchsorted(times, ts, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    d0, d1 = cumulative[idx], cumulative[idx + 1]
    # A degenerate segment answers d0, as the scalar early return does;
    # its 0/0 is discarded by the where.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t1 <= t0, d0,
                        d0 + (d1 - d0) * (ts - t0) / (t1 - t0))


class Trip:
    """A moving object's journey: route + direction + speed curve."""

    __slots__ = (
        "route",
        "direction",
        "curve",
        "start_travel",
        "_times",
        "_cumulative",
        "_max_speed",
    )

    def __init__(self, route: Route, curve: SpeedCurve, direction: int = 0,
                 start_travel: float = 0.0) -> None:
        if direction not in (0, 1):
            raise SimulationError(f"direction must be 0 or 1, got {direction}")
        if not 0.0 <= start_travel <= route.length:
            raise SimulationError(
                f"start_travel {start_travel} outside route [0, {route.length}]"
            )
        self.route = route
        self.direction = direction
        self.curve = curve
        self.start_travel = start_travel
        self._times, self._cumulative = self._integrate(curve)
        self._max_speed = curve.max_speed()

    @staticmethod
    def _integrate(curve: SpeedCurve) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule cumulative distance at the internal resolution.

        The midpoint rule is exact for piecewise-constant curves whose
        phase boundaries align with the sample grid (the common case for
        hand-built scenarios) and second-order accurate for the smooth
        synthetic curves — unlike the trapezoid rule, it does not smear
        speed discontinuities across a sample.  Both are read-only arrays.
        """
        steps = max(int(round(curve.duration / _INTEGRATION_DT)), 1)
        dt = curve.duration / steps
        midpoint_speeds = curve.speed_many((np.arange(1, steps + 1) - 0.5) * dt)
        # cumsum adds one step at a time, left to right.
        cumulative = np.zeros(steps + 1)
        np.cumsum(midpoint_speeds * dt, out=cumulative[1:])
        cumulative.setflags(write=False)
        return time_grid(steps, dt), cumulative

    @property
    def duration(self) -> float:
        """Trip duration in minutes."""
        return self.curve.duration

    @property
    def total_distance(self) -> float:
        """Total distance travelled over the whole trip (miles)."""
        return self._cumulative.item(-1)

    @property
    def max_speed(self) -> float:
        """The trip's maximum speed ``V`` (the DBMS-known envelope)."""
        return self._max_speed

    def speed(self, t: float) -> float:
        """Actual speed at time ``t``."""
        return self.curve.speed(t)

    def distance_travelled(self, t: float) -> float:
        """Distance travelled since trip start, by interpolation."""
        return interpolate_distance(
            self._times, self._cumulative, self.curve.duration, t
        )

    def distance_travelled_many(
            self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """``distance_travelled`` at every time of ``ts``: the same floats."""
        return interpolate_distance_many(
            self._times, self._cumulative, self.curve.duration, ts
        )

    def travel_at(self, t: float) -> float:
        """Travel distance along the route at time ``t`` (clamped)."""
        return min(self.start_travel + self.distance_travelled(t),
                   self.route.length)

    def position(self, t: float) -> Point:
        """The object's actual plane position at time ``t``."""
        return self.route.travel_point(self.travel_at(t), self.direction)

    def fits_route(self) -> bool:
        """True when the route is long enough for the whole journey."""
        return self.start_travel + self.total_distance <= self.route.length + 1e-9

    @classmethod
    def synthetic(cls, curve: SpeedCurve, route_id: str = "synthetic",
                  heading_degrees: float = 0.0) -> "Trip":
        """A trip on an auto-generated straight route long enough to fit.

        Used by the §3.4 policy experiments, where only the deviation
        dynamics matter and any sufficiently long route will do.
        """
        length = max(curve.max_speed() * curve.duration, 1e-6) + 1.0
        route = straight_route(length, route_id, heading_degrees=heading_degrees)
        return cls(route, curve)

    def __repr__(self) -> str:
        return (
            f"Trip(route={self.route.route_id!r}, kind={self.curve.kind!r}, "
            f"duration={self.duration:.1f}, distance={self.total_distance:.2f})"
        )

__all__ = [
    "Trip",
    "interpolate_distance",
    "interpolate_distance_many",
    "time_grid",
]
