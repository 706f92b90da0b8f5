"""The policy-simulation engine (paper §3.4).

"For each speed-curve, update policy, and update cost C we execute a
simulation run that computes the total cost (a single number) and the
average uncertainty (also a single number) of the policy on the curve
for the given update cost."  :func:`simulate_trip` is that run.

The engine advances a fixed-step clock over the trip.  At each tick it:

1. observes the onboard state (deviation, speed history),
2. accrues deviation cost for the tick and samples the DBMS-side
   uncertainty bound,
3. evaluates the policy and applies any update (which resets the
   deviation and re-bases the uncertainty bound).

The uncertainty bound is recomputed from
:func:`repro.core.bounds.bounds_for_policy` whenever the declared speed
changes (i.e. on every update) — exactly the information flow of §3.3,
where the DBMS derives the bound from the policy, ``P.speed``, ``C``,
``V`` and the time since the last update.

Every run reads the trip through a :class:`~repro.sim.grid.TickGrid`,
and the decision loop exists twice, nowhere else: noisy runs, route
reckoning and multi-leg journeys go through these two.
:meth:`PolicySimulation._run_generic` is the definition of a run — an
:class:`OnboardComputer`, ``policy.decide`` and
:func:`bounds_for_policy`, tick by tick — and takes whatever only it
can express: a stateful or subclassed policy, another speed predictor
or cost function.  The kernel (:func:`repro.vec.engine.simulate_batch`)
is the same arithmetic over arrays for every row of
:data:`KERNEL_FAMILIES`, per-tick series included, held to the
reference on ``repr`` by the test suite;
:meth:`PolicySimulation.run` sends such a policy to it as a batch of
one, and :func:`repro.sim.lanes.simulate_lanes` groups many runs —
a sweep, a fleet — into shared passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.bounds import bounds_for_policy
from repro.core.cost import StepDeviationCost, UniformDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.policy import THRESHOLD_TOLERANCE, UpdatePolicy
from repro.core.speed import AverageSpeedSinceUpdate, CurrentSpeed
from repro.errors import SimulationError
from repro.obs.probe import Probe, probe
from repro.sim.clock import SimulationClock
from repro.sim.grid import GridTrip, TickGrid
from repro.sim.metrics import TripMetrics
from repro.sim.trip import Trip
from repro.sim.vehicle import OnboardComputer, UpdateEvent
from repro.units import DEFAULT_TICK_MINUTES


def _horizon_cap(policy: HorizonCostPolicy) -> float:
    """``horizon_cost_bounds``'s cap: ``C / H``, zero bounds at ``<= 0``."""
    trigger = policy.update_cost / policy.horizon
    return 0.0 if trigger <= 0 else trigger


class KernelFamily(NamedTuple):
    """One row of the kernel's family table (DESIGN.md §4).

    ``fire`` is what ``decide`` holds against a lane's level: the
    deviation against Proposition 1 (``"prop1"``, screened by Equation
    3), the deviation times a factor, the travel since the update (read
    before the zero snap: ``"distance"``) or the time since it.
    ``constants`` gives a policy's ``(level, factor, bound cap, event
    threshold)``; prop1 derives them from ``C``.  A ``static`` row
    declares speed 0 and bounds only the lead, by ``V``.  A row that
    ``reads_cost`` decides from its cost function: uniform cost only.
    """

    fire: str
    constants: Callable[[Any], tuple[float, float, float, float]] | None = None
    static: bool = False
    reads_cost: bool = False


_SLACK = 1.0 - THRESHOLD_TOLERANCE  # of every constant-level ``decide``

#: What the kernel runs, by exact policy class, each row in the float
#: order of ``decide``, :class:`OnboardComputer` and
#: :func:`bounds_for_policy`.  Anything else — a subclass,
#: ``AdaptivePolicy``, another speed predictor or cost function — takes
#: the reference loop.
KERNEL_FAMILIES: dict[type, KernelFamily] = {
    DelayedLinearPolicy: KernelFamily("prop1"),
    AverageImmediateLinearPolicy: KernelFamily("prop1"),
    CurrentImmediateLinearPolicy: KernelFamily("prop1"),
    FixedThresholdPolicy: KernelFamily("deviation", lambda p: (
        p.bound * _SLACK, 1.0, p.bound, p.bound)),
    TraditionalPointPolicy: KernelFamily("distance", lambda p: (
        p.precision * _SLACK, 1.0, p.precision, p.precision), static=True),
    PeriodicPolicy: KernelFamily("elapsed", lambda p: (
        p.period * _SLACK, 1.0, math.inf, math.inf)),
    HorizonCostPolicy: KernelFamily("deviation", lambda p: (
        p.update_cost, p.horizon, _horizon_cap(p), p.update_cost / p.horizon),
        reads_cost=True),
}


def kernel_lane(policy: UpdatePolicy) -> tuple[tuple, tuple] | None:
    """``(kind, parameters)`` of a kernel lane, or ``None``: the
    reference loop.  Lanes of one kind — class, speed predictor, cost
    function class — share a pass; the parameters are ``C``, the step
    cost's ``h`` (``None`` under the uniform cost) and the constants.
    The step cost changes only the integrand, so it runs wherever the
    decision does not read the cost function.
    """
    family = KERNEL_FAMILIES.get(type(policy))
    if family is None:
        return None
    cost = policy.cost_function
    predictor = None if family.static else type(policy.speed_predictor)
    if predictor not in (None, CurrentSpeed, AverageSpeedSinceUpdate) or not (
            type(cost) is UniformDeviationCost
            or type(cost) is StepDeviationCost and not family.reads_cost):
        return None
    return (type(policy), predictor, type(cost)), (
        policy.update_cost, getattr(cost, "threshold", None),
        *(family.constants(policy) if family.constants else ()))


def supports_fast_path(policy: UpdatePolicy) -> bool:
    """Whether the kernel can run this policy exactly."""
    return kernel_lane(policy) is not None


@dataclass(frozen=True, slots=True)
class TripSeries:
    """Optional per-tick traces for plotting and debugging."""

    times: list[float]
    deviations: list[float]
    uncertainty_bounds: list[float]
    database_travel: list[float]
    actual_travel: list[float]


@dataclass(frozen=True, slots=True)
class TripResult:
    """Everything a simulation run produced."""

    metrics: TripMetrics
    updates: list[UpdateEvent] = field(default_factory=list)
    series: TripSeries | None = None


def _tick_instruments(p: Probe, policy_name: str):
    """An observed run's per-tick instruments, hoisted out of its loop."""
    return (
        p.instrument("sim_tick_deviation_miles", policy=policy_name),
        p.instrument("sim_tick_bound_miles", policy=policy_name),
        p.instrument("sim_updates_total", policy=policy_name),
    )


def _record_run(p: Probe, runs: list[TripMetrics], num_ticks: int,
                wall_start: float) -> None:
    """The end-of-run facts of an observed pass's lanes (one policy;
    the gauges keep the last lane's values)."""
    policy_name = runs[-1].policy
    p.count("sim_runs_total", len(runs), policy=policy_name)
    p.count("sim_ticks_total", num_ticks * len(runs))
    seconds = p.instrument("sim_run_seconds", policy=policy_name)
    for _ in runs:
        seconds.observe(perf_counter() - wall_start)
    p.gauge("sim_avg_deviation_miles", runs[-1].avg_deviation,
            policy=policy_name)
    p.gauge("sim_total_cost", runs[-1].total_cost, policy=policy_name)


class PolicySimulation:
    """A reusable engine binding a trip to a policy.

    Use :func:`simulate_trip` for the common one-shot case; instantiate
    this class directly when you need to inspect the computer mid-run or
    to drive several policies over the same pre-built trip.
    """

    def __init__(self, trip: Trip, policy: UpdatePolicy,
                 dt: float = DEFAULT_TICK_MINUTES,
                 max_speed: float | None = None,
                 grid: TickGrid | None = None) -> None:
        self.trip = trip
        self.policy = policy
        self.clock = SimulationClock(trip.duration, dt)
        self.max_speed = max_speed if max_speed is not None else trip.max_speed
        if not self.max_speed >= 0:
            raise SimulationError(f"max speed must be nonnegative, got {self.max_speed}")
        if grid is None:
            grid = TickGrid.build(trip, dt)
        elif (grid.dt != self.clock.dt
                or grid.num_ticks != self.clock.num_ticks
                or grid.duration != self.clock.duration):
            raise SimulationError(
                f"tick grid (dt={grid.dt}, ticks={grid.num_ticks}, "
                f"duration={grid.duration}) does not match the clock "
                f"(dt={self.clock.dt}, ticks={self.clock.num_ticks}, "
                f"duration={self.clock.duration})"
            )
        #: The trip's kinematics on the clock: the only thing a run reads.
        self.grid = grid

    def run(self, record_series: bool = False) -> TripResult:
        """Execute the whole trip and return its result.

        A policy the kernel supports runs there, as a batch of one; its
        output — the per-tick series included — is float-for-float that
        of the reference loop (asserted by the test suite).
        """
        if not supports_fast_path(self.policy):
            return self._run_generic(record_series)
        # vec.engine imports TripResult and kernel_lane from here.
        from repro.vec.batch import VecTripBatch
        from repro.vec.engine import simulate_batch

        # One column: the grid's own arrays, this run's speed ceiling.
        grid = self.grid
        batch = VecTripBatch(
            grid.dt, grid.duration, grid.num_ticks, grid.times,
            grid.travel[:, np.newaxis], grid.speeds[:, np.newaxis],
            np.array([self.max_speed], dtype=np.float64))
        return simulate_batch(batch, self.policy,
                              record_series=record_series)[0]

    def _run_generic(self, record_series: bool = False) -> TripResult:
        trip = GridTrip(self.grid)
        computer = OnboardComputer(trip, self.policy)  # type: ignore[arg-type]
        policy, max_speed = self.policy, self.max_speed
        bounds = bounds_for_policy(policy, computer.declared_speed, max_speed)
        dt = self.clock.dt

        # Observability hooks: instruments are hoisted out of the tick
        # loop and the whole block collapses to `observed = False` under
        # the default probe, keeping the library path zero-cost.
        p = probe()
        observed = p.enabled
        if observed:
            deviation_hist, bound_hist, update_counter = _tick_instruments(
                p, self.policy.name)
            wall_start = perf_counter()

        deviation_integral = 0.0
        deviation_cost = 0.0
        uncertainty_integral = 0.0
        max_deviation = 0.0
        max_uncertainty = 0.0

        times: list[float] = []
        deviations: list[float] = []
        bound_trace: list[float] = []
        db_travel_trace: list[float] = []
        actual_travel_trace: list[float] = []

        with p.span("simulate_trip", policy=self.policy.name,
                  duration=self.clock.duration, dt=dt):
            for _, t in self.clock.ticks():
                state = computer.observe(t)
                deviation = state.deviation
                bound = bounds.total(state.elapsed)

                deviation_integral += deviation * dt
                deviation_cost += self.policy.cost_function.rate(deviation) * dt
                uncertainty_integral += bound * dt
                max_deviation = max(max_deviation, deviation)
                max_uncertainty = max(max_uncertainty, bound)

                if observed:
                    deviation_hist.observe(deviation)
                    bound_hist.observe(bound)

                if record_series:
                    times.append(t)
                    deviations.append(deviation)
                    bound_trace.append(bound)
                    db_travel_trace.append(computer.database_travel(t))
                    actual_travel_trace.append(trip.distance_travelled(t))

                decision = self.policy.decide(state)
                if decision.send:
                    computer.apply_update(t, decision, deviation)
                    bounds = bounds_for_policy(
                        policy, computer.declared_speed, max_speed)
                    if observed:
                        update_counter.inc()

        duration = self.clock.duration
        metrics = TripMetrics(
            policy=self.policy.name,
            update_cost=self.policy.update_cost,
            duration=duration,
            num_updates=computer.num_updates,
            deviation_integral=deviation_integral,
            deviation_cost=deviation_cost,
            total_cost=(
                self.policy.update_cost * computer.num_updates + deviation_cost
            ),
            avg_deviation=deviation_integral / duration,
            max_deviation=max_deviation,
            avg_uncertainty=uncertainty_integral / duration,
            max_uncertainty=max_uncertainty,
        )
        if observed:
            _record_run(p, [metrics], self.clock.num_ticks, wall_start)
        series = (
            TripSeries(
                times=times,
                deviations=deviations,
                uncertainty_bounds=bound_trace,
                database_travel=db_travel_trace,
                actual_travel=actual_travel_trace,
            )
            if record_series
            else None
        )
        return TripResult(metrics=metrics, updates=list(computer.events),
                          series=series)


def simulate_trip(trip: Trip, policy: UpdatePolicy,
                  dt: float = DEFAULT_TICK_MINUTES,
                  max_speed: float | None = None,
                  record_series: bool = False) -> TripResult:
    """Simulate one trip under one policy (the paper's unit of work)."""
    return PolicySimulation(trip, policy, dt, max_speed).run(record_series)

__all__ = [
    "KERNEL_FAMILIES",
    "KernelFamily",
    "PolicySimulation",
    "TripResult",
    "TripSeries",
    "kernel_lane",
    "simulate_trip",
    "supports_fast_path",
]
