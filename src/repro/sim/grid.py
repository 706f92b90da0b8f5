"""Tick grids: a trip's kinematics sampled on the simulation clock.

Every run over a trip walks the same fixed-step clock, so the trip-side
quantities the engine reads at each tick — cumulative travel
(``trip.distance_travelled(i * dt)``) and instantaneous speed
(``trip.speed(i * dt)``) — depend on the trip and ``dt`` alone.  A
:class:`TickGrid` computes them once, by one array evaluation of the
speed curve and of the distance interpolation, and every
:class:`~repro.sim.engine.PolicySimulation` runs on one: the reference
loop reads through :class:`GridTrip` (the ``Trip`` surface the onboard
computer touches, answering on-grid times by O(1) lookup into
:meth:`TickGrid.scalars`), and the vectorized engine stacks the arrays
as they are.  The grid stores *exactly* the
floats the trip methods return at the tick times, so a grid-backed run
is byte-identical to stepping the trip itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.clock import SimulationClock
from repro.sim.trip import Trip, time_grid


class TickGrid:
    """Per-tick trip kinematics on a ``(duration, dt)`` clock grid.

    ``times[i]``, ``travel[i]`` and ``speeds[i]`` correspond to tick
    ``i`` of :class:`~repro.sim.clock.SimulationClock` (index 0 is the
    trip start), with ``times[i] == i * dt`` exactly — the same float
    the clock hands the engine.  The three are read-only float64 arrays
    of length ``num_ticks + 1``, which the vectorized engine stacks as
    they are; :class:`GridTrip` indexes :meth:`scalars` instead, so no
    ``np.float64`` leaks into the reference loop's metrics or events.
    """

    __slots__ = ("dt", "duration", "num_ticks", "max_speed",
                 "times", "travel", "speeds", "_scalars")

    def __init__(self, dt: float, duration: float, max_speed: float,
                 times: Sequence[float] | np.ndarray,
                 travel: Sequence[float] | np.ndarray,
                 speeds: Sequence[float] | np.ndarray) -> None:
        times, travel, speeds = map(_frozen_vector, (times, travel, speeds))
        if times.ndim != 1 or not times.shape == travel.shape == speeds.shape:
            raise SimulationError(
                f"grid arrays disagree: {times.shape} times, "
                f"{travel.shape} travel, {speeds.shape} speeds"
            )
        self.dt = dt
        self.duration = duration
        self.num_ticks = len(times) - 1
        self.max_speed = max_speed
        self.times = times
        self.travel = travel
        self.speeds = speeds
        self._scalars: tuple[list[float], list[float], list[float]] | None = None

    def scalars(self) -> tuple[list[float], list[float], list[float]]:
        """``(times, travel, speeds)`` as lists of Python floats.

        One ``.tolist()`` each, on first use and kept: a grid only the
        vectorized engine reads never boxes a float, and the reference
        loop pays the conversion once per grid, not once per cell.
        """
        if self._scalars is None:
            self._scalars = (self.times.tolist(), self.travel.tolist(),
                             self.speeds.tolist())
        return self._scalars

    @classmethod
    def build(cls, trip: Trip, dt: float) -> "TickGrid":
        """Sample the trip's kinematics on the simulation clock grid.

        One array evaluation each of the speed curve and the distance
        interpolation; both return the floats their scalar forms
        (``trip.speed(t)``, ``trip.distance_travelled(t)``) return.
        Where those distances are byte for byte the trip's own
        integration profile (a tick layout equal to the integration
        layout), the grid keeps the trip's read-only array, not a copy.
        """
        times = time_grid(SimulationClock(trip.duration, dt).num_ticks, dt)
        travel = trip.distance_travelled_many(times)
        if travel.tobytes() == trip._cumulative.tobytes():
            travel = trip._cumulative
        return cls(dt=dt, duration=trip.duration, max_speed=trip.max_speed,
                   times=times, travel=travel,
                   speeds=trip.curve.speed_many(times))

    def index_of(self, t: float) -> int:
        """The tick index whose time is exactly ``t`` (on-grid only)."""
        i = int(round(t / self.dt))
        if not 0 <= i <= self.num_ticks or self.times.item(i) != t:
            raise SimulationError(
                f"time {t} is not on the tick grid (dt={self.dt}, "
                f"num_ticks={self.num_ticks})"
            )
        return i

    def __repr__(self) -> str:
        return (
            f"TickGrid(duration={self.duration}, dt={self.dt}, "
            f"num_ticks={self.num_ticks})"
        )


def _frozen_vector(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` as a read-only float64 array, copied unless it is one."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        return values
    vector = np.array(values, dtype=np.float64)
    vector.setflags(write=False)
    return vector


class GridTrip:
    """A trip surface backed by a :class:`TickGrid` (on-grid times only).

    Supports exactly the calls the policy engine makes — all of which
    land on tick times — and raises for anything off-grid, so a cache
    bug surfaces as a loud error rather than a silent drift.  Answers
    are Python floats, as a :class:`~repro.sim.trip.Trip` returns.
    """

    __slots__ = ("grid", "_travel", "_speeds")

    def __init__(self, grid: TickGrid) -> None:
        self.grid = grid
        _, self._travel, self._speeds = grid.scalars()

    @property
    def duration(self) -> float:
        return self.grid.duration

    @property
    def max_speed(self) -> float:
        return self.grid.max_speed

    def speed(self, t: float) -> float:
        return self._speeds[self.grid.index_of(t)]

    def distance_travelled(self, t: float) -> float:
        return self._travel[self.grid.index_of(t)]

    def __repr__(self) -> str:
        return f"GridTrip({self.grid!r})"

__all__ = [
    "GridTrip",
    "TickGrid",
]
