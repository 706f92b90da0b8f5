"""Tick-grid caching of trip kinematics.

Every simulation run of the §3.4 grid walks the same fixed-step clock
over the same trip, so the trip-side quantities the engine consumes at
each tick — cumulative travel (``trip.distance_travelled(i * dt)``) and
instantaneous speed (``trip.speed(i * dt)``) — are identical across all
(policy, update-cost) cells that share the trip.  A :class:`TickGrid`
precomputes them once; a :class:`TripTickCache` shares grids across
cells (and, in the parallel executor, ships them to worker processes so
workers never rebuild trips).

The grid stores *exactly* the floats the trip methods return at the
clock's tick times, so a grid-backed run is byte-identical to a direct
one — the equality the executor's determinism guarantee rests on.  It
holds them as float64 arrays, built by one array evaluation of the
speed curve and of the distance interpolation: the vectorized engine
stacks the arrays as they are, and the scalar consumers
(:meth:`~repro.sim.engine.PolicySimulation._run_fast`,
:class:`GridTrip`) read Python floats from :meth:`TickGrid.scalars`.

:class:`GridTrip` is a lightweight stand-in exposing the slice of the
:class:`~repro.sim.trip.Trip` surface the policy engine touches
(``duration``, ``max_speed``, ``speed(t)``, ``distance_travelled(t)``),
answering only on-grid times by O(1) lookup.  It lets policies outside
the engine's inlined fast path (the baselines) run through the generic
:class:`~repro.sim.vehicle.OnboardComputer` loop against cached
kinematics, and it is what worker processes simulate against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs.registry import get_registry
from repro.sim.clock import SimulationClock
from repro.sim.trip import Trip


class TickGrid:
    """Per-tick trip kinematics on a ``(duration, dt)`` clock grid.

    ``times[i]``, ``travel[i]`` and ``speeds[i]`` correspond to tick
    ``i`` of :class:`~repro.sim.clock.SimulationClock` (index 0 is the
    trip start), with ``times[i] == i * dt`` exactly — the same float
    the clock hands the engine.  The three are read-only float64 arrays
    of length ``num_ticks + 1``, which the vectorized engine stacks as
    they are; scalar consumers index :meth:`scalars` instead, so no
    ``np.float64`` leaks into metrics or events.
    """

    __slots__ = ("dt", "duration", "num_ticks", "max_speed",
                 "times", "travel", "speeds", "_scalars")

    def __init__(self, dt: float, duration: float, max_speed: float,
                 times: Sequence[float] | np.ndarray,
                 travel: Sequence[float] | np.ndarray,
                 speeds: Sequence[float] | np.ndarray) -> None:
        times, travel, speeds = (
            _frozen_vector(values) for values in (times, travel, speeds)
        )
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
        vectorized engine reads never boxes a float, and the scalar
        engine pays the conversion once per grid, not once per cell.
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
        """
        clock = SimulationClock(trip.duration, dt)
        times = np.arange(clock.num_ticks + 1) * dt
        return cls(dt=dt, duration=trip.duration, max_speed=trip.max_speed,
                   times=times, travel=trip.distance_travelled_many(times),
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
    """A read-only float64 copy of ``values`` (grids are shared)."""
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


class TripTickCache:
    """Shares :class:`TickGrid` objects across simulation cells.

    Keyed by trip identity and ``dt``: the sweep grid reuses the same
    trip objects across every (policy, update-cost) cell, so all but the
    first lookup per trip hit.  The cache pins the trip objects it has
    seen, keeping the identity keys valid for its lifetime.
    """

    def __init__(self) -> None:
        self._grids: dict[tuple[int, float], tuple[Trip, TickGrid]] = {}
        self.hits = 0
        self.misses = 0

    def grid_for(self, trip: Trip, dt: float) -> TickGrid:
        """The (possibly cached) tick grid of ``trip`` at resolution ``dt``."""
        key = (id(trip), dt)
        entry = self._grids.get(key)
        registry = get_registry()
        if entry is not None:
            self.hits += 1
            if registry.enabled:
                registry.counter(
                    "exec_cache_hits_total",
                    help="Tick-grid cache hits (grid reused across cells).",
                ).inc()
            return entry[1]
        grid = TickGrid.build(trip, dt)
        self._grids[key] = (trip, grid)
        self.misses += 1
        if registry.enabled:
            registry.counter(
                "exec_cache_misses_total",
                help="Tick-grid cache misses (grid built from the trip).",
            ).inc()
        return grid

    def __len__(self) -> int:
        return len(self._grids)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Hit/miss accounting as a plain dict (for benchmark output)."""
        return {
            "entries": len(self._grids),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

__all__ = [
    "GridTrip",
    "TickGrid",
    "TripTickCache",
]
