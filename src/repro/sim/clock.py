"""A discrete simulation clock.

Time is a sequence of ticks of fixed width ``dt`` (canonical minutes).
The clock exists so every component agrees on tick boundaries and so
float accumulation error stays bounded: tick times are computed as
``i * dt`` from the integer tick index, never by repeated addition.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SimulationError
from repro.units import DEFAULT_TICK_MINUTES


class SimulationClock:
    """Fixed-step clock over ``[0, duration]``.

    ``ticks()`` yields the tick *end* times ``dt, 2 dt, ..., n dt``; the
    interval ``((i-1) dt, i dt]`` is "tick i".  Policies are evaluated at
    tick ends, matching the paper's "at any point in time the moving
    object computes the current deviation" at the simulation's finest
    resolution.
    """

    __slots__ = ("duration", "dt", "num_ticks")

    def __init__(self, duration: float,
                 dt: float = DEFAULT_TICK_MINUTES) -> None:
        if not 0 < duration < float("inf"):
            raise SimulationError(
                f"duration must be positive and finite, got {duration}")
        if not dt > 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if dt > duration:
            raise SimulationError(
                f"dt ({dt}) must not exceed duration ({duration})"
            )
        self.duration = duration
        self.dt = dt
        # Floor (with float-dust tolerance): the last tick must not
        # overshoot the duration when it is not an exact multiple of dt.
        self.num_ticks = int(duration / dt + 1e-9)

    def time_at(self, tick: int) -> float:
        """The time at the end of tick ``tick`` (1-based)."""
        if not 0 <= tick <= self.num_ticks:
            raise SimulationError(
                f"tick {tick} outside [0, {self.num_ticks}]"
            )
        return tick * self.dt

    def ticks(self) -> Iterator[tuple[int, float]]:
        """Yield ``(tick_index, tick_end_time)`` for the whole run."""
        for i in range(1, self.num_ticks + 1):
            yield i, i * self.dt

    def __repr__(self) -> str:
        return (
            f"SimulationClock(duration={self.duration}, dt={self.dt}, "
            f"num_ticks={self.num_ticks})"
        )

__all__ = [
    "SimulationClock",
]
