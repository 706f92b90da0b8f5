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

Every run reads the trip through a :class:`~repro.sim.grid.TickGrid`.
Many runs at once — a sweep, a fleet — go through
:func:`repro.exec.executor.simulate_lanes`, which sends large uniform
groups to the vectorized kernel and the rest through
:meth:`PolicySimulation.run`; :func:`simulate_trip` is its one-lane
case, and one lane never reaches the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.bounds import DeviationBounds, bounds_for_policy
from repro.core.cost import UniformDeviationCost
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.policy import THRESHOLD_TOLERANCE, UpdatePolicy
from repro.errors import SimulationError
from repro.obs.metrics import MILE_BUCKETS
from repro.obs.registry import get_registry, span
from repro.sim.clock import SimulationClock
from repro.sim.grid import GridTrip, TickGrid
from repro.sim.metrics import TripMetrics
from repro.sim.trip import Trip
from repro.sim.vehicle import (
    OnboardComputer,
    UpdateEvent,
    ZERO_DEVIATION_TOLERANCE,
)
from repro.units import DEFAULT_TICK_MINUTES

#: Policies the inlined tick-grid fast path replicates exactly.  The
#: inline loop hardcodes the dl/ail/cil decision algebra (simple
#: fitting + Proposition 1) and the §3.3 bound formulas, so anything
#: else — baselines, extensions, custom cost functions — takes the
#: generic :class:`OnboardComputer` loop instead.
_FAST_PATH_POLICIES = (
    DelayedLinearPolicy,
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
)


def supports_fast_path(policy: UpdatePolicy) -> bool:
    """Whether the tick-grid fast path can run this policy exactly."""
    return (
        isinstance(policy, _FAST_PATH_POLICIES)
        and type(policy.cost_function) is UniformDeviationCost
    )


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


def _tick_instruments(registry, policy_name: str):
    """An observed run's per-tick instruments, hoisted out of its loop."""
    return (
        registry.histogram(
            "sim_tick_deviation_miles",
            help="Per-tick onboard deviation samples.",
            buckets=MILE_BUCKETS, policy=policy_name,
        ),
        registry.histogram(
            "sim_tick_bound_miles",
            help="Per-tick DBMS-side uncertainty bound samples.",
            buckets=MILE_BUCKETS, policy=policy_name,
        ),
        registry.counter(
            "sim_updates_total",
            help="Position-update messages decided by the engine.",
            policy=policy_name,
        ),
    )


def _record_run(registry, metrics: TripMetrics, num_ticks: int,
                wall_start: float) -> None:
    """An observed run's end-of-run instruments."""
    policy_name = metrics.policy
    registry.counter(
        "sim_runs_total", help="Completed simulation runs.",
        policy=policy_name,
    ).inc()
    registry.counter(
        "sim_ticks_total", help="Engine ticks executed.",
    ).inc(num_ticks)
    registry.histogram(
        "sim_run_seconds",
        help="Wall-clock time per simulation run.",
        policy=policy_name,
    ).observe(perf_counter() - wall_start)
    registry.gauge(
        "sim_avg_deviation_miles",
        help="Time-averaged deviation of the last run.",
        policy=policy_name,
    ).set(metrics.avg_deviation)
    registry.gauge(
        "sim_total_cost",
        help="Total cost (eq. 2) of the last run.",
        policy=policy_name,
    ).set(metrics.total_cost)


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
        if self.max_speed < 0:
            raise SimulationError(f"max speed must be nonnegative, got {self.max_speed}")
        if grid is None:
            grid = TickGrid.build(trip, dt)
        elif (grid.dt != self.clock.dt
                or grid.num_ticks != self.clock.num_ticks):
            raise SimulationError(
                f"tick grid (dt={grid.dt}, ticks={grid.num_ticks}) does not "
                f"match the clock (dt={self.clock.dt}, "
                f"ticks={self.clock.num_ticks})"
            )
        #: The trip's kinematics on the clock: the only thing a run reads.
        self.grid = grid
        #: Memoized DBMS-side bounds by declared speed: updates that
        #: re-declare an already-seen speed reuse the bound object
        #: instead of rebuilding identical closures.
        self._bounds_memo: dict[float, DeviationBounds] = {}

    def run(self, record_series: bool = False) -> TripResult:
        """Execute the whole trip and return its result.

        A supported policy takes the inlined fast path instead of the
        generic loop; its output is float-for-float identical (asserted
        by the exec test suite).  Series recording always takes the
        generic loop, which knows how to collect the per-tick traces.
        """
        if not record_series and supports_fast_path(self.policy):
            return self._run_fast()
        return self._run_generic(record_series)

    def _run_generic(self, record_series: bool = False) -> TripResult:
        trip = GridTrip(self.grid)
        computer = OnboardComputer(trip, self.policy)  # type: ignore[arg-type]
        bounds = self._bounds_for(computer.declared_speed)
        dt = self.clock.dt

        # Observability hooks: instruments are hoisted out of the tick
        # loop and the whole block collapses to `observed = False` under
        # the default NullRegistry, keeping the library path zero-cost.
        registry = get_registry()
        observed = registry.enabled
        if observed:
            deviation_hist, bound_hist, update_counter = _tick_instruments(
                registry, self.policy.name)
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

        with span("simulate_trip", policy=self.policy.name,
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
                    bounds = self._bounds_for(computer.declared_speed)
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
            _record_run(registry, metrics, self.clock.num_ticks, wall_start)
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

    def _bounds_for(self, declared_speed: float) -> DeviationBounds:
        bounds = self._bounds_memo.get(declared_speed)
        if bounds is None:
            bounds = bounds_for_policy(self.policy, declared_speed,
                                       self.max_speed)
            self._bounds_memo[declared_speed] = bounds
        return bounds

    def _run_fast(self) -> TripResult:
        """The tick-grid fast path for the dl/ail/cil family.

        Replicates the generic loop's arithmetic operation-for-operation
        — same expressions, same evaluation order — while skipping the
        per-tick object traffic (OnboardState/UpdateDecision/estimator
        construction) and replacing trip kinematics calls with grid
        indexing.  Any semantic change to :meth:`_run_generic`, to the
        policies' ``decide`` or to the §3.3 bound closures must be
        mirrored here; ``tests/exec/test_fast_engine.py`` enforces the
        equivalence with exact float comparisons.
        """
        grid = self.grid
        policy = self.policy
        dt = self.clock.dt
        duration = self.clock.duration
        num_ticks = self.clock.num_ticks
        # Python floats from here on: the loop's arithmetic, the metrics
        # and the events never see an np.float64.
        times, travel, speeds = grid.scalars()
        max_speed = self.max_speed
        update_cost = policy.update_cost
        use_delay = isinstance(policy, DelayedLinearPolicy)
        declare_average = isinstance(policy, AverageImmediateLinearPolicy)
        sqrt = math.sqrt
        send_slack = 1.0 - THRESHOLD_TOLERANCE

        registry = get_registry()
        observed = registry.enabled
        if observed:
            deviation_hist, bound_hist, update_counter = _tick_instruments(
                registry, self.policy.name)
            wall_start = perf_counter()

        declared_speed = speeds[0]
        last_update_time = 0.0
        last_update_travel = 0.0
        last_zero_elapsed = 0.0
        events: list[UpdateEvent] = []

        # Bound constants for the current declared speed, hoisted out of
        # the closures of repro.core.bounds (same formulas, precomputed):
        # dl uses the Proposition 2/3 plateaus, ail/cil the 2C/t cap.
        speed_gap = max_speed - declared_speed
        if speed_gap < 0.0:
            speed_gap = 0.0
        if use_delay:
            slow_plateau = sqrt(2.0 * declared_speed * update_cost)
            fast_plateau = sqrt(2.0 * speed_gap * update_cost)

        deviation_integral = 0.0
        deviation_cost = 0.0
        uncertainty_integral = 0.0
        max_deviation = 0.0
        max_uncertainty = 0.0

        with span("simulate_trip", policy=policy.name,
                  duration=duration, dt=dt):
            for i in range(1, num_ticks + 1):
                t = times[i]
                elapsed = t - last_update_time
                actual_travel = travel[i]
                deviation = actual_travel - (
                    last_update_travel + declared_speed * elapsed
                )
                if deviation < 0.0:
                    deviation = -deviation
                if deviation <= ZERO_DEVIATION_TOLERANCE:
                    last_zero_elapsed = elapsed
                    deviation = 0.0

                if use_delay:
                    slow = declared_speed * elapsed
                    if slow_plateau < slow:
                        slow = slow_plateau
                    fast = speed_gap * elapsed
                    if fast_plateau < fast:
                        fast = fast_plateau
                else:
                    cap = (float("inf") if elapsed <= 0
                           else 2.0 * update_cost / elapsed)
                    slow = declared_speed * elapsed
                    if cap < slow:
                        slow = cap
                    fast = speed_gap * elapsed
                    if cap < fast:
                        fast = cap
                bound = slow if slow > fast else fast

                deviation_integral += deviation * dt
                deviation_cost += deviation * dt
                uncertainty_integral += bound * dt
                if deviation > max_deviation:
                    max_deviation = deviation
                if bound > max_uncertainty:
                    max_uncertainty = bound

                if observed:
                    deviation_hist.observe(deviation)
                    bound_hist.observe(bound)

                if deviation > 0.0:
                    # Inlined SimpleFitting.fit + Proposition 1.
                    delay = last_zero_elapsed if use_delay else 0.0
                    effective = elapsed - delay
                    if effective <= 0:
                        effective = 1e-9
                    slope = deviation / effective
                    ab = slope * delay
                    threshold = sqrt(ab * ab + 2.0 * slope * update_cost) - ab
                    if deviation >= threshold * send_slack:
                        if declare_average:
                            distance = actual_travel - last_update_travel
                            if distance < 0.0:
                                distance = 0.0
                            new_speed = (distance / elapsed if elapsed > 0
                                         else declared_speed)
                            if new_speed < 0.0:
                                new_speed = 0.0
                        else:
                            new_speed = speeds[i]
                            if new_speed < 0.0:
                                new_speed = 0.0
                        events.append(UpdateEvent(
                            time=t,
                            travel=actual_travel,
                            declared_speed=new_speed,
                            threshold=threshold,
                            deviation_at_update=deviation,
                        ))
                        last_update_time = t
                        last_update_travel = actual_travel
                        declared_speed = new_speed
                        last_zero_elapsed = 0.0
                        speed_gap = max_speed - declared_speed
                        if speed_gap < 0.0:
                            speed_gap = 0.0
                        if use_delay:
                            slow_plateau = sqrt(
                                2.0 * declared_speed * update_cost
                            )
                            fast_plateau = sqrt(
                                2.0 * speed_gap * update_cost
                            )
                        if observed:
                            update_counter.inc()

        num_updates = len(events)
        metrics = TripMetrics(
            policy=policy.name,
            update_cost=update_cost,
            duration=duration,
            num_updates=num_updates,
            deviation_integral=deviation_integral,
            deviation_cost=deviation_cost,
            total_cost=update_cost * num_updates + deviation_cost,
            avg_deviation=deviation_integral / duration,
            max_deviation=max_deviation,
            avg_uncertainty=uncertainty_integral / duration,
            max_uncertainty=max_uncertainty,
        )
        if observed:
            _record_run(registry, metrics, self.clock.num_ticks, wall_start)
        return TripResult(metrics=metrics, updates=events, series=None)


def simulate_trip(trip: Trip, policy: UpdatePolicy,
                  dt: float = DEFAULT_TICK_MINUTES,
                  max_speed: float | None = None,
                  record_series: bool = False) -> TripResult:
    """Simulate one trip under one policy (the paper's unit of work)."""
    return PolicySimulation(trip, policy, dt, max_speed).run(record_series)

__all__ = [
    "PolicySimulation",
    "TripResult",
    "TripSeries",
    "simulate_trip",
    "supports_fast_path",
]
