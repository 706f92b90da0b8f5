"""The vectorized policy-simulation engine for whole policy families.

:func:`simulate_batch` advances every vehicle of a
:class:`~repro.vec.batch.VecTripBatch` through the dl/ail/cil decision
algebra in lock step, under every update cost of a sweep at once: a
Python loop over ticks, NumPy arrays of shape ``(k, n)`` — ``k`` update
costs by ``n`` vehicles — across lanes.  A single policy is the
``k = 1`` call of the same loop.  Each per-lane arithmetic step —
deviation, §3.3 bound, Proposition-1 threshold, update resets — uses
the same float64 expressions in the same evaluation order as
:meth:`repro.sim.engine.PolicySimulation._run_fast`, and each lane's
accumulators receive the same additions in the same tick order, so
every :class:`~repro.sim.metrics.TripMetrics` field and every
:class:`~repro.sim.vehicle.UpdateEvent` is byte-identical to the
scalar fast path (``tests/vec/`` asserts exact equality).

The cost axis is broadcast, never materialised: the tick's kinematics
row ``travel[i]`` has shape ``(n,)`` and the update costs form a
``(k, 1)`` column, so NumPy pairs lane ``(c, j)`` with trip ``j``'s
travel and cost ``c`` — the two operands the scalar run of that cell
reads.  Lanes never interact (every operation is elementwise), which
is why fusing costs, like blocking vehicles, cannot change a value; it
only divides the per-tick call overhead by ``k``.

Vehicles are processed in column blocks of :data:`BLOCK_VEHICLES` lanes
so the per-tick temporaries stay cache-resident at fleet scale.  Update
firings are rare relative to ticks, so the per-tick work is a fixed
set of elementwise operations plus an indexed scatter for the lanes
whose threshold fired.

Telemetry: the whole batch runs under one ``simulate_trip_batch``
span; per-tick registry instruments are not replicated here, which is
why the executor only dispatches to this path when neither the
metrics registry nor the tracer is enabled.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.policies import (
    AverageImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.policy import THRESHOLD_TOLERANCE, UpdatePolicy
from repro.errors import SimulationError
from repro.obs.registry import span
from repro.sim.engine import TripResult, supports_fast_path
from repro.sim.metrics import TripMetrics
from repro.sim.vehicle import UpdateEvent, ZERO_DEVIATION_TOLERANCE
from repro.vec.batch import VecTripBatch

__all__ = [
    "BLOCK_VEHICLES",
    "simulate_batch",
]

#: Lanes (update costs x vehicles) advanced together per tick-loop
#: pass.  Large enough to amortize NumPy call overhead, small enough
#: that the ~20 live per-lane temporaries fit in cache instead of
#: streaming through RAM (a block-size scan put the knee at 8k on the
#: reference box).
BLOCK_VEHICLES = 8192


def simulate_batch(batch: VecTripBatch,
                   policy: UpdatePolicy | Sequence[UpdatePolicy],
                   collect_events: bool = True) -> list[TripResult]:
    """Simulate every trip of ``batch`` under one policy family.

    ``policy`` is one dl/ail/cil policy, or a sequence of policies of
    one class that differ in update cost — the cost axis of a sweep.
    Returns one :class:`TripResult` per (policy, trip) lane, policy-major:
    entry ``c * batch.size + j`` is trip ``j`` under the ``c``-th policy,
    so a single policy yields one result per batch row, in row order.
    With ``collect_events=False`` the per-update event lists are skipped
    (the executor only consumes metrics); metrics are identical either
    way.  Raises :class:`~repro.errors.SimulationError` for policies
    outside the fast-path family or of mixed classes.
    """
    policies = [policy] if isinstance(policy, UpdatePolicy) else list(policy)
    if not policies:
        raise SimulationError("simulate_batch needs at least one policy")
    for member in policies:
        if not supports_fast_path(member):
            raise SimulationError(
                f"policy {member.name!r} is not supported by the vectorized "
                "engine; use the scalar PolicySimulation instead"
            )
        if type(member) is not type(policies[0]):
            raise SimulationError(
                "policies of one simulate_batch call must share a class; "
                f"got {member.name!r} alongside {policies[0].name!r}"
            )
    # Blocks hold BLOCK_VEHICLES lanes whatever the cost count.
    block = max(1, BLOCK_VEHICLES // len(policies))
    per_policy: list[list[TripResult]] = [[] for _ in policies]
    # One errstate frame for the whole run: the masked divisions
    # (2C/elapsed at elapsed == 0, distance/elapsed on fire) are
    # replaced via np.where, so their warnings are pure noise.
    with span("simulate_trip_batch", policy=policies[0].name,
              costs=len(policies), vehicles=batch.size,
              duration=batch.duration, dt=batch.dt), \
            np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, batch.size, block):
            stop = min(start + block, batch.size)
            for results, row in zip(per_policy, _simulate_block(
                    batch, policies, start, stop, collect_events)):
                results.extend(row)
    return [result for results in per_policy for result in results]


def _simulate_block(batch: VecTripBatch, policies: list[UpdatePolicy],
                    start: int, stop: int,
                    collect_events: bool) -> list[list[TripResult]]:
    """Run trips ``[start, stop)`` of the batch under every policy.

    Returns one result row per policy.  State is ``(k, n)`` for ``k``
    policies by ``n`` trips; the tick's kinematics row (``(n,)``) and
    the update-cost column (``(k, 1)``) broadcast against it.
    """
    n = stop - start
    k = len(policies)
    lanes = (k, n)
    num_ticks = batch.num_ticks
    dt = batch.dt
    duration = batch.duration
    times = batch.times.tolist()
    travel = batch.travel
    speeds = batch.speeds
    max_speeds = batch.max_speeds[start:stop]
    costs = [member.update_cost for member in policies]
    update_cost = np.array(costs, dtype=np.float64).reshape(k, 1)
    use_delay = isinstance(policies[0], DelayedLinearPolicy)
    declare_average = isinstance(policies[0], AverageImmediateLinearPolicy)
    send_slack = 1.0 - THRESHOLD_TOLERANCE
    two_cost = 2.0 * update_cost

    # Per-lane onboard/DBMS state, exactly the scalars of _run_fast
    # widened to (k, n) arrays.
    declared = np.empty(lanes, dtype=np.float64)
    declared[:] = speeds[0, start:stop]
    last_update_time = np.zeros(lanes, dtype=np.float64)
    last_update_travel = np.zeros(lanes, dtype=np.float64)
    last_zero_elapsed = np.zeros(lanes, dtype=np.float64)
    gap = max_speeds - declared
    gap = np.where(gap < 0.0, 0.0, gap)
    if use_delay:
        slow_plateau = np.sqrt(2.0 * declared * update_cost)
        fast_plateau = np.sqrt(2.0 * gap * update_cost)
    else:
        slow_plateau = fast_plateau = None

    # The fast path accrues deviation_integral and deviation_cost with
    # the identical `deviation * dt` addend each tick (uniform cost),
    # so one accumulator serves both metrics bit-for-bit.
    deviation_integral = np.zeros(lanes, dtype=np.float64)
    uncertainty_integral = np.zeros(lanes, dtype=np.float64)
    max_deviation = np.zeros(lanes, dtype=np.float64)
    max_uncertainty = np.zeros(lanes, dtype=np.float64)
    num_updates = np.zeros(lanes, dtype=np.int64)
    events: list[list[list[UpdateEvent]]] = [
        [[] for _ in range(n)] for _ in range(k)
    ]

    # Preallocated per-tick scratch.  Every elementwise op below writes
    # into one of these via ``out=`` so the hot loop allocates nothing.
    elapsed = np.empty(lanes, dtype=np.float64)
    v_elapsed = np.empty(lanes, dtype=np.float64)
    g_elapsed = np.empty(lanes, dtype=np.float64)
    deviation = np.empty(lanes, dtype=np.float64)
    bound = np.empty(lanes, dtype=np.float64)
    slow = np.empty(lanes, dtype=np.float64)
    slope = np.empty(lanes, dtype=np.float64)
    ab = np.empty(lanes, dtype=np.float64)
    threshold = np.empty(lanes, dtype=np.float64)
    tmp = np.empty(lanes, dtype=np.float64)
    zero = np.empty(lanes, dtype=np.bool_)
    positive = np.empty(lanes, dtype=np.bool_)
    fire = np.empty(lanes, dtype=np.bool_)

    for i in range(1, num_ticks + 1):
        t = times[i]
        # Tick times are strictly increasing and last_update_time only
        # ever holds an earlier tick's time, so elapsed >= dt > 0 on
        # every lane: the scalar engine's elapsed <= 0 guards (the inf
        # bound cap and the 1e-9 slope floor) are unreachable here.
        np.subtract(t, last_update_time, out=elapsed)
        actual = travel[i, start:stop]
        np.multiply(declared, elapsed, out=v_elapsed)
        np.add(last_update_travel, v_elapsed, out=deviation)
        np.subtract(actual, deviation, out=deviation)
        np.fabs(deviation, out=deviation)
        np.less_equal(deviation, ZERO_DEVIATION_TOLERANCE, out=zero)
        if zero.any():
            np.copyto(last_zero_elapsed, elapsed, where=zero)
            np.copyto(deviation, 0.0, where=zero)

        np.multiply(gap, elapsed, out=g_elapsed)
        if use_delay:
            np.minimum(v_elapsed, slow_plateau, out=slow)
            np.minimum(g_elapsed, fast_plateau, out=bound)
            np.maximum(slow, bound, out=bound)
        else:
            # max(min(vt, cap), min(gap*t, cap)) == min(max(vt, gap*t),
            # cap): min/max only select inputs, so the fused form picks
            # the same float the scalar branch picks.
            np.divide(two_cost, elapsed, out=slow)
            np.maximum(v_elapsed, g_elapsed, out=bound)
            np.minimum(bound, slow, out=bound)

        np.multiply(deviation, dt, out=tmp)
        deviation_integral += tmp
        np.multiply(bound, dt, out=tmp)
        uncertainty_integral += tmp
        np.maximum(max_deviation, deviation, out=max_deviation)
        np.maximum(max_uncertainty, bound, out=max_uncertainty)

        np.greater(deviation, 0.0, out=positive)
        if not positive.any():
            continue
        # Inlined SimpleFitting.fit + Proposition 1, over all lanes.
        # Lanes with zero deviation can never fire: under dl their
        # slope is 0/0 = NaN (delay was set to this very elapsed), so
        # the fire comparison is False; otherwise their threshold is 0
        # and `positive` gates them out.  Positive lanes always have
        # effective >= dt > 0 (a zero tick can only be an earlier,
        # smaller elapsed), so the scalar 1e-9 floor is unreachable.
        if use_delay:
            np.subtract(elapsed, last_zero_elapsed, out=slope)
            np.divide(deviation, slope, out=slope)
            np.multiply(slope, last_zero_elapsed, out=ab)
            np.multiply(ab, ab, out=threshold)
            np.multiply(2.0, slope, out=tmp)
            np.multiply(tmp, update_cost, out=tmp)
            np.add(threshold, tmp, out=threshold)
            np.sqrt(threshold, out=threshold)
            np.subtract(threshold, ab, out=threshold)
        else:
            np.divide(deviation, elapsed, out=slope)
            np.multiply(2.0, slope, out=tmp)
            np.multiply(tmp, update_cost, out=tmp)
            np.sqrt(tmp, out=threshold)
        np.multiply(threshold, send_slack, out=tmp)
        np.greater_equal(deviation, tmp, out=fire)
        np.logical_and(fire, positive, out=fire)
        if not fire.any():
            continue

        fired = np.nonzero(fire)
        cost_idx, trip_idx = fired
        fired_travel = actual[trip_idx]
        if declare_average:
            fired_elapsed = elapsed[fired]
            distance = fired_travel - last_update_travel[fired]
            distance = np.where(distance < 0.0, 0.0, distance)
            ratio = distance / fired_elapsed
            new_speed = np.where(fired_elapsed > 0.0, ratio, declared[fired])
        else:
            new_speed = speeds[i, start:stop][trip_idx]
        new_speed = np.where(new_speed < 0.0, 0.0, new_speed)

        if collect_events:
            for c, j, event_travel, event_speed, event_threshold, \
                    event_deviation in zip(
                        cost_idx.tolist(), trip_idx.tolist(),
                        fired_travel.tolist(), new_speed.tolist(),
                        threshold[fired].tolist(),
                        deviation[fired].tolist()):
                events[c][j].append(UpdateEvent(
                    time=t,
                    travel=event_travel,
                    declared_speed=event_speed,
                    threshold=event_threshold,
                    deviation_at_update=event_deviation,
                ))
        num_updates[fired] += 1
        last_update_time[fired] = t
        last_update_travel[fired] = fired_travel
        declared[fired] = new_speed
        last_zero_elapsed[fired] = 0.0
        fired_gap = max_speeds[trip_idx] - new_speed
        fired_gap = np.where(fired_gap < 0.0, 0.0, fired_gap)
        gap[fired] = fired_gap
        if use_delay:
            fired_cost = update_cost[cost_idx, 0]
            slow_plateau[fired] = np.sqrt(2.0 * new_speed * fired_cost)
            fast_plateau[fired] = np.sqrt(2.0 * fired_gap * fired_cost)

    # Python numbers from here on: metrics never hold an np.float64.
    rows: list[list[TripResult]] = []
    for member, cost, lane_events, lane_updates, dev_integrals, \
            unc_integrals, max_deviations, max_uncertainties in zip(
                policies, costs, events, num_updates.tolist(),
                deviation_integral.tolist(), uncertainty_integral.tolist(),
                max_deviation.tolist(), max_uncertainty.tolist()):
        row: list[TripResult] = []
        for j in range(n):
            dev_integral = dev_integrals[j]
            metrics = TripMetrics(
                policy=member.name,
                update_cost=cost,
                duration=duration,
                num_updates=lane_updates[j],
                deviation_integral=dev_integral,
                deviation_cost=dev_integral,
                total_cost=cost * lane_updates[j] + dev_integral,
                avg_deviation=dev_integral / duration,
                max_deviation=max_deviations[j],
                avg_uncertainty=unc_integrals[j] / duration,
                max_uncertainty=max_uncertainties[j],
            )
            row.append(TripResult(
                metrics=metrics,
                updates=lane_events[j] if collect_events else [],
                series=None,
            ))
        rows.append(row)
    return rows
