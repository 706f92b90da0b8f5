"""Structure-of-arrays packing of tick grids for a sweep's trips.

A :class:`VecTripBatch` stacks the per-trip float64 arrays of
:class:`repro.sim.grid.TickGrid` — cumulative travel and sampled
speeds at every tick — into tick-major ``(n_ticks + 1, n_vehicles)``
arrays, one column per trip, so the vectorized engine
(:mod:`repro.vec.engine`) can advance every vehicle in lock step.  The
batch carries kinematics only: it is packed once per sweep run and
shared by every (policy, update-cost) pair, which the engine lays over
it as a broadcast axis.  All grids in a batch must share the same tick
layout (``dt``, ``num_ticks``, ``duration``); the executor groups lanes
by layout, one batch per group.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.grid import TickGrid

__all__ = [
    "VecTripBatch",
]


class VecTripBatch:
    """All trips of a sweep as structure-of-arrays tick data.

    ``times`` is the shared ``(num_ticks + 1,)`` tick-time vector;
    ``travel`` and ``speeds`` are *tick-major* ``(num_ticks + 1, size)``
    arrays whose column ``j`` is trip ``j``'s cumulative travel /
    sampled speed, and ``max_speeds`` is the per-trip speed ceiling
    ``V``.  Tick-major layout makes each simulation step a contiguous
    row read instead of a strided column gather, which is what keeps
    the engine memory-bound-fast at fleet scale.  The array values are
    the grids' own, so bitwise the ones the reference loop reads.
    """

    __slots__ = ("dt", "duration", "num_ticks", "size", "times", "travel",
                 "speeds", "max_speeds")

    def __init__(self, dt: float, duration: float, num_ticks: int,
                 times: np.ndarray, travel: np.ndarray, speeds: np.ndarray,
                 max_speeds: np.ndarray) -> None:
        size = travel.shape[1] if travel.ndim == 2 else 0
        if times.shape != (num_ticks + 1,):
            raise SimulationError(
                f"times must have shape ({num_ticks + 1},), got {times.shape}"
            )
        if travel.shape != (num_ticks + 1, size) or speeds.shape != travel.shape:
            raise SimulationError(
                f"travel/speeds must have shape ({num_ticks + 1}, {size}), "
                f"got {travel.shape} and {speeds.shape}"
            )
        if max_speeds.shape != (size,):
            raise SimulationError(
                f"max_speeds must have shape ({size},), got {max_speeds.shape}"
            )
        self.dt = dt
        self.duration = duration
        self.num_ticks = num_ticks
        self.size = size
        self.times = times
        self.travel = travel
        self.speeds = speeds
        self.max_speeds = max_speeds

    @classmethod
    def from_grids(cls, grids: Sequence[TickGrid]) -> "VecTripBatch":
        """Stack prebuilt tick grids (one per trip) into a batch.

        Repeated grid objects (fleets cycling a pool of base trips)
        are stacked once and broadcast into their columns by a
        vectorized gather.  Raises
        :class:`~repro.errors.SimulationError` when ``grids`` is empty
        or the grids disagree on tick layout.
        """
        if not grids:
            raise SimulationError("VecTripBatch requires at least one grid")
        first = grids[0]
        unique_columns: dict[int, int] = {}
        unique_grids: list[TickGrid] = []
        index = np.empty(len(grids), dtype=np.intp)
        for i, grid in enumerate(grids):
            if (grid.dt != first.dt or grid.num_ticks != first.num_ticks
                    or grid.duration != first.duration):
                raise SimulationError(
                    "all grids in a VecTripBatch must share the same tick "
                    f"layout; got (dt={grid.dt}, ticks={grid.num_ticks}, "
                    f"duration={grid.duration}) alongside (dt={first.dt}, "
                    f"ticks={first.num_ticks}, duration={first.duration})"
                )
            column = unique_columns.get(id(grid))
            if column is None:
                column = len(unique_grids)
                unique_columns[id(grid)] = column
                unique_grids.append(grid)
            index[i] = column
        # Tick-major: one stack of the grids' own arrays, no per-float
        # conversion.
        travel = np.stack([grid.travel for grid in unique_grids], axis=1)
        speeds = np.stack([grid.speeds for grid in unique_grids], axis=1)
        if len(unique_grids) != len(grids):
            travel = travel[:, index]
            speeds = speeds[:, index]
        return cls(
            dt=first.dt,
            duration=first.duration,
            num_ticks=first.num_ticks,
            times=first.times,
            travel=travel,
            speeds=speeds,
            max_speeds=np.array([grid.max_speed for grid in grids],
                                dtype=np.float64),
        )

    def __repr__(self) -> str:
        return (
            f"VecTripBatch(size={self.size}, num_ticks={self.num_ticks}, "
            f"dt={self.dt}, duration={self.duration})"
        )
