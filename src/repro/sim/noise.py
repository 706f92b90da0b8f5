"""Bounded GPS measurement noise (robustness extension, E18).

The paper assumes "at any point in time each vehicle knows its exact
current position" (footnote 1).  Real receivers carry bounded error.
This module injects uniform noise of magnitude ``epsilon`` miles into
every position measurement the onboard computer takes and measures the
consequences:

* the policy triggers on *measured* deviation, so the actual deviation
  can exceed the clean bound by up to ``epsilon`` at trigger time;
* the reported update position is itself off by up to ``epsilon``, so
  dead reckoning re-bases with that error.

Inflating the DBMS-side bound by ``2 * epsilon`` restores soundness —
:func:`simulate_trip_with_noise` measures bound violations with and
without the inflation, which is experiment E18's content.

A noisy run is an ordinary run on a noisy grid: the clean
:class:`~repro.sim.grid.TickGrid` with its travel column read through
the sensor (:func:`noisy_grid`), handed to
:class:`~repro.sim.engine.PolicySimulation` or, many at once, to
:func:`~repro.sim.lanes.simulate_lanes` (kernel or reference loop,
as for any trip).  A reading is one draw ``u`` per ``(seed, tick)``
(:func:`reading_draws`) scaled to ``[-epsilon, epsilon]`` as
``random.uniform`` scales it, so one set of draws serves every
``epsilon``.  The audit (:func:`audit`) is a reduction of the run's
series against the clean travel.  The inflation is DBMS-side only — the
vehicle never sees it — so the naive and the inflated audit of one
``(trip, policy, epsilon, seed)`` are two reductions of one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.policy import UpdatePolicy
from repro.errors import SimulationError
from repro.sim.engine import PolicySimulation, TripResult
from repro.sim.grid import TickGrid
from repro.sim.trip import Trip
from repro.units import DEFAULT_TICK_MINUTES


class NoisyTripView:
    """A trip as seen through a noisy position sensor.

    Wraps a clean :class:`Trip`; ``distance_travelled`` adds uniform
    noise in ``[-epsilon, +epsilon]``, deterministic per query time (the
    same instant re-measured returns the same reading: each draws from
    its own seeded stream, the one draw :func:`reading_draws` takes for
    that instant whatever ``epsilon``).  Speed readings stay clean —
    speedometers are far more accurate than absolute position.  This is
    the scalar definition of a reading; :func:`noisy_grid` is the same
    floats for a whole grid.
    """

    def __init__(self, trip: Trip, epsilon: float, seed: int) -> None:
        _check_epsilon(epsilon)
        self._trip = trip
        self.epsilon = epsilon
        self._seed = seed

    def speed(self, t: float) -> float:
        return self._trip.speed(t)

    def distance_travelled(self, t: float) -> float:
        """The *measured* travel distance: truth plus bounded noise."""
        noise = _stream(self._seed, t).uniform(-self.epsilon, self.epsilon)
        return max(self._trip.distance_travelled(t) + noise, 0.0)


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < float("inf"):
        raise SimulationError(
            f"epsilon must be finite and nonnegative, got {epsilon}")


def _stream(seed: int, t: float) -> random.Random:
    """The sensor's stream for the reading at time ``t``."""
    return random.Random(seed * 1_000_003 + int(round(t * 1e6)))


def reading_draws(seed: int, grid: TickGrid) -> np.ndarray:
    """The one draw ``u`` of each tick's reading, for every ``epsilon``."""
    return np.array([_stream(seed, t).random() for t in grid.times.tolist()])


def noisy_grid(clean: TickGrid, epsilon: float,
               draws: np.ndarray) -> TickGrid:
    """``clean`` with its travel read by the sensor: at every tick the
    float :meth:`NoisyTripView.distance_travelled` returns."""
    _check_epsilon(epsilon)
    low, high = -epsilon, epsilon
    measured = clean.travel + (low + (high - low) * draws)
    # Clean speeds and the clean speed ceiling: only positions are noisy.
    return TickGrid(clean.dt, clean.duration, clean.max_speed, clean.times,
                    np.where(0.0 > measured, 0.0, measured), clean.speeds)


@dataclass(frozen=True, slots=True)
class NoisyRunResult:
    """Outcome of a noisy run, including bound-soundness accounting."""

    epsilon: float
    inflated: bool
    num_updates: int
    #: Ticks where the *actual* deviation exceeded the reported bound
    #: (after any inflation), beyond discretisation slack.
    violations: int
    ticks: int
    max_excess: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.ticks if self.ticks else 0.0


def audit(clean: TickGrid, result: TripResult, epsilon: float,
          inflate_bounds: bool) -> NoisyRunResult:
    """Bound soundness of a noisy run (recorded series) against the
    clean travel, with the DBMS-side bound inflated by ``2 * epsilon``
    or not."""
    inflation = 2.0 * epsilon if inflate_bounds else 0.0
    slack = clean.max_speed * clean.dt * 2 + 1e-9
    excess = (
        np.abs(clean.travel[1:] - np.array(result.series.database_travel))
        - ((np.array(result.series.uncertainty_bounds) + inflation) + slack)
    )
    return NoisyRunResult(
        epsilon=epsilon,
        inflated=inflate_bounds,
        num_updates=result.metrics.num_updates,
        violations=int(np.count_nonzero(excess > 0)),
        ticks=clean.num_ticks,
        max_excess=max(0.0, float(excess.max())),
    )


def simulate_trip_with_noise(trip: Trip, policy: UpdatePolicy,
                             epsilon: float, seed: int = 0,
                             dt: float = DEFAULT_TICK_MINUTES,
                             inflate_bounds: bool = True) -> NoisyRunResult:
    """Run a trip with noisy measurements; account bound soundness.

    The onboard computer sees the noisy grid; ground truth comes from
    the clean one.  The DBMS-side bound is optionally inflated by
    ``2 * epsilon`` (measurement error at the update, plus measurement
    error folded into the trigger).
    """
    clean = TickGrid.build(trip, dt)
    noisy = noisy_grid(clean, epsilon, reading_draws(seed, clean))
    result = PolicySimulation(trip, policy, dt, grid=noisy).run(
        record_series=True)
    return audit(clean, result, epsilon, inflate_bounds)

__all__ = [
    "NoisyRunResult",
    "NoisyTripView",
    "audit",
    "noisy_grid",
    "reading_draws",
    "simulate_trip_with_noise",
]
