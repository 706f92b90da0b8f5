"""The vectorized policy-simulation engine for whole policy families.

:func:`simulate_batch` advances every vehicle of a
:class:`~repro.vec.batch.VecTripBatch` through one row of the family
table (:data:`~repro.sim.engine.KERNEL_FAMILIES`: the dl/ail/cil
decision algebra, or a constant, distance or clock level) under every
parameter row of a sweep at once, a *window* of ticks
per pass: NumPy tiles of shape ``(w, k, n)`` — ``w`` ticks by ``k``
parameter rows by ``n`` vehicles.  A single policy is the ``k = 1`` call
of the same loop.  Each per-lane arithmetic step — deviation, §3.3
bound, Proposition-1 threshold, update resets — uses the float64
expressions of the reference loop
(:meth:`repro.sim.engine.PolicySimulation._run_generic`: the onboard
computer, ``policy.decide``, the :mod:`repro.core.bounds` closures) in
its evaluation order, and each lane's accumulators receive the same
additions in the same tick order, so every
:class:`~repro.sim.metrics.TripMetrics` field and every
:class:`~repro.sim.vehicle.UpdateEvent` is byte-identical to the
reference run of that lane (``tests/vec/`` asserts equality on
``repr``).

Between two updates nothing about a lane changes — ``P.speed``, the
time and travel of the last update, the bound constants — so a window
is evaluated in one pass *as if no lane fired* (:func:`_speculate`).
Where that fails, the lane's first firing row is final and so is
everything before it; the update is applied there and only the fired
lanes, only from the row after their fire, are speculated again, until
no replayed lane fires.  A row is committed — added to the integrals,
folded into the maxima — only once no earlier row of its lane can
still fire.  A prop1 lane's threshold (a divide, a square root) is
only computed where Equation 3, ``deviation * t >= 2C``, says a fire is
possible (:func:`_screen_level`); the exact expressions decide every
candidate.  Every other row's level is its exact test.

The cost axis is broadcast, never materialised: a window's kinematics
rows ``travel[i0:i1]`` have shape ``(w, 1, n)`` and its tick times
``(w, 1, 1)``, so NumPy pairs lane ``(c, j)`` with trip ``j``'s travel
and cost ``c`` — the operands the reference run of that cell reads.
Lanes never interact (every operation is elementwise), which is why
fusing costs, blocking vehicles or tiling ticks cannot change a value;
they only divide the per-call overhead.

Vehicles are processed in column blocks of :data:`BLOCK_VEHICLES` lanes
and ticks in windows of :data:`TILE_ELEMENTS` elements, so the tile
temporaries stay cache-resident at any scale.  Update firings are rare
relative to ticks — a sweep lane fires some five times in 3600 — so a
pass is a fixed set of elementwise operations over the tile plus a
replay over the few lanes whose threshold fired.

Telemetry: the whole batch runs under one ``simulate_trip_batch``
span, which records how the run went (windows, their length, replay
rounds and lanes, screen candidates).  Under an enabled registry a
block reports what the reference loop reports for each of its lanes,
from what it already holds: a window's settled deviation and bound
tiles *are* its per-tick samples, so the tick histograms take them
whole at commit (:meth:`~repro.obs.metrics.Histogram.observe_many`),
and the run instruments are set from the result rows.  One ``enabled``
read per block; nothing per tick, nothing when disabled.

The same tiles are a run's series.  Under ``record_series`` a block
copies every committed window into a ``(ticks, k, n)`` store and hands
each lane its columns: what the reference loop appends tick by tick.
The third column, the dead-reckoned travel, is otherwise only an
intermediate of the deviation, written into the deviation's buffer and
overwritten there; it gets a buffer of its own only while recording, so
an unrecorded pass issues the ufunc calls it always did, on the same
buffers, and the store exists only for as long as a recorded pass runs.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.policies import DelayedLinearPolicy
from repro.core.policy import THRESHOLD_TOLERANCE, UpdatePolicy
from repro.core.speed import AverageSpeedSinceUpdate
from repro.errors import SimulationError
from repro.obs.probe import probe
from repro.sim.engine import (
    KERNEL_FAMILIES,
    KernelFamily,
    TripResult,
    TripSeries,
    _record_run,
    _tick_instruments,
    kernel_lane,
)
from repro.sim.metrics import TripMetrics
from repro.sim.vehicle import UpdateEvent, ZERO_DEVIATION_TOLERANCE
from repro.vec.batch import VecTripBatch

__all__ = [
    "BLOCK_VEHICLES",
    "TILE_ELEMENTS",
    "simulate_batch",
]

#: Most lanes (update costs x vehicles) advanced together.  Large
#: enough to amortize NumPy call overhead, small enough that the ~7
#: live per-lane temporaries fit in cache instead of streaming through
#: RAM (a block-size scan put the knee at 8k on the reference box).
BLOCK_VEHICLES = 8192

#: Elements (lanes x ticks) of one window's tile: a block narrower than
#: this advances as many ticks per pass as fit, so the sweep's 960
#: lanes take 17 ticks at a time and a full fleet block two.  The same
#: trade as :data:`BLOCK_VEHICLES`, along the tick axis (scan in
#: DESIGN.md §4).
TILE_ELEMENTS = 16384


class _Lanes(NamedTuple):
    """Per-lane state: what one run carries from tick to tick, as arrays.

    ``(k, n)`` for a block, ``(F,)`` for the lanes of a replay.  The
    dl plateaus and last-zero elapsed are ``None`` outside dl, the
    row constants (``screen`` is the level) ``None`` in a prop1 row.
    """

    declared: np.ndarray
    last_time: np.ndarray
    last_travel: np.ndarray
    gap: np.ndarray
    cost: np.ndarray
    two_cost: np.ndarray
    screen: np.ndarray
    last_zero: np.ndarray | None
    slow_plateau: np.ndarray | None
    fast_plateau: np.ndarray | None
    factor: np.ndarray | None = None
    cap: np.ndarray | None = None
    threshold: np.ndarray | None = None

    def flat(self) -> "_Lanes":
        """The same arrays by flat lane index (views, not copies)."""
        return _Lanes(*(None if field is None else field.reshape(-1)
                        for field in self))

    def take(self, lanes: np.ndarray) -> "_Lanes":
        """The state of flat lanes ``lanes``, compressed (copies)."""
        return _Lanes(*(None if field is None else field[lanes]
                        for field in self))


def simulate_batch(batch: VecTripBatch,
                   policy: UpdatePolicy | Sequence[UpdatePolicy],
                   collect_events: bool = True,
                   record_series: bool = False) -> list[TripResult]:
    """Simulate every trip of ``batch`` under one policy family.

    ``policy`` is one policy of a :data:`~repro.sim.engine.KERNEL_FAMILIES`
    row, or a sequence of policies of one kind
    (:func:`~repro.sim.engine.kernel_lane`) that differ in their
    parameters — the cost axis of a sweep.
    Returns one :class:`TripResult` per (policy, trip) lane, policy-major:
    entry ``c * batch.size + j`` is trip ``j`` under the ``c``-th policy,
    so a single policy yields one result per batch row, in row order.
    With ``collect_events=False`` the per-update event lists are skipped
    (the executor only consumes metrics); metrics are identical either
    way, and with ``record_series``, which attaches each lane's per-tick
    :class:`~repro.sim.engine.TripSeries`.  Raises
    :class:`~repro.errors.SimulationError` for policies outside the
    table or of mixed kinds.
    """
    policies = [policy] if isinstance(policy, UpdatePolicy) else list(policy)
    if not policies:
        raise SimulationError("simulate_batch needs at least one policy")
    lanes = [kernel_lane(member) for member in policies]
    for member, lane in zip(policies, lanes):
        if lane is None:
            raise SimulationError(
                f"policy {member.name!r} is not supported by the vectorized "
                "engine; PolicySimulation.run takes it through the "
                "reference loop"
            )
        if lane[0] != lanes[0][0]:
            raise SimulationError(
                "policies of one simulate_batch call must share a class, "
                f"speed predictor and cost function; got {member!r} "
                f"alongside {policies[0]!r}"
            )
    # Blocks hold BLOCK_VEHICLES lanes whatever the cost count.
    block = max(1, BLOCK_VEHICLES // len(policies))
    per_policy: list[list[TripResult]] = [[] for _ in policies]
    tally = dict.fromkeys(("windows", "window_ticks", "replay_rounds",
                           "replayed_lanes", "screen_candidates"), 0)
    # One errstate frame for the whole run: the masked divisions
    # (2C/elapsed and distance/elapsed on the rows a replay discards,
    # 0/0 slopes of zero-deviation candidates) never reach a result,
    # so their warnings are pure noise.
    with probe().span("simulate_trip_batch", policy=policies[0].name,
              costs=len(policies), vehicles=batch.size,
              duration=batch.duration, dt=batch.dt) as record, \
            np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, batch.size, block):
            stop = min(start + block, batch.size)
            for results, row in zip(per_policy, _simulate_block(
                    batch, policies, lanes, start, stop, collect_events,
                    record_series, tally)):
                results.extend(row)
        if record is not None:
            record.set(**tally)
    return [result for results in per_policy for result in results]


def _screen_level(cost: np.ndarray, num_ticks: int,
                  horizon: float) -> np.ndarray:
    """What ``deviation * (elapsed + delay)`` must reach for a fire.

    Squaring Proposition 1 gives Equation 3: a lane fires only if
    ``deviation * (elapsed + delay) >= 2C`` (``delay`` is 0 under
    ail/cil).  The exact test applies a relative slack of
    ``THRESHOLD_TOLERANCE`` and rounds a handful of operations; the
    margin of ``1e-6`` covers both (DESIGN.md §4 has the derivation)
    wherever ``2 * slope * C`` stays a normal float — deviations exceed
    ``ZERO_DEVIATION_TOLERANCE``, so costs of at least ``1e-100`` and
    tick times up to ``horizon <= 1e100`` suffice — and the dl
    cancellation error, which grows with ``elapsed / (elapsed - delay)
    <= num_ticks``, stays far below it.  Elsewhere the level is 0 and
    every lane with a deviation is a candidate, as it is for ``C = 0``
    by arithmetic.
    """
    sound = (cost >= 1e-100) & (num_ticks <= 10 ** 8) & (horizon <= 1e100)
    return np.where(sound, 2.0 * cost * (1.0 - 1e-6), 0.0)


def _threshold(deviation: np.ndarray, elapsed: np.ndarray,
               delay: np.ndarray | None, cost: np.ndarray) -> np.ndarray:
    """Inlined SimpleFitting.fit + Proposition 1.

    Only evaluated where the deviation is positive, so ``elapsed -
    delay >= dt > 0`` (a zero tick can only be an earlier, smaller
    elapsed) and ``SimpleFitting``'s 1e-9 floor is unreachable; a
    zero-deviation dl candidate has slope 0/0 = NaN and never fires.
    """
    if delay is None:
        return np.sqrt(2.0 * (deviation / elapsed) * cost)
    slope = deviation / (elapsed - delay)
    ab = slope * delay
    return np.sqrt(ab * ab + 2.0 * slope * cost) - ab


def _scan(ufunc: np.ufunc, rows: np.ndarray) -> None:
    """``rows[r] = ufunc(rows[r - 1], rows[r])`` down the rows, in place.

    That is ``ufunc.accumulate(rows, axis=0)`` by definition, each row
    from the one before — never a pairwise tree — so a scan of addends
    leaves every partial sum the tick loop would have held.  NumPy runs
    it one strided lane at a time, which wins on a tall tile; on a wide
    one a Python call per row does.
    """
    if len(rows) > rows[0].size:
        ufunc.accumulate(rows, axis=0, out=rows)
    else:
        for r in range(1, len(rows)):
            ufunc(rows[r - 1], rows[r], out=rows[r])


def _speculate(t: np.ndarray, actual: np.ndarray, lanes: _Lanes,
               valid: np.ndarray | None, scratch: list[np.ndarray],
               family: KernelFamily,
               ) -> tuple[tuple[np.ndarray, ...], np.ndarray | None, int,
                          tuple[np.ndarray, ...] | None]:
    """Advance ``lanes`` over the rows of ``t`` as if none of them fired.

    ``t`` and ``actual`` (tick times and travel) broadcast against the
    lane state along a leading row axis.  Returns the tiles the caller
    settles — deviation, bound and, where it has a buffer of its own,
    the dead-reckoned travel — the (dl) last-zero-elapsed rows, the
    number of positions the Equation-3 screen admitted, and each firing
    lane's *first* fire:
    ``(row, lane, elapsed, threshold, deviation)`` arrays with ``lane``
    indexing the flattened lane axes.  Rows after a lane's first fire
    were computed under a state the fire replaced; the caller replays
    them.  ``valid`` masks the rows of a replay that precede the lane's
    own fire (elapsed <= 0 under its new state): they neither count as
    zero-deviation ticks nor fire, and the caller discards their values.
    ``family`` is the lanes' row of the family table.
    """
    elapsed, v_elapsed, deviation, bound, work, flags, reckoned = scratch[:7]
    tiles = (deviation, bound, reckoned)[:2 if reckoned is deviation else 3]
    # Tick times are strictly increasing and last_time only ever holds
    # an earlier tick's time, so elapsed >= dt > 0 on every valid row:
    # the reference's elapsed <= 0 guards (the inf bound cap and the
    # 1e-9 slope floor) are unreachable here.
    np.subtract(t, lanes.last_time, out=elapsed)
    np.multiply(lanes.declared, elapsed, out=v_elapsed)
    np.add(lanes.last_travel, v_elapsed, out=reckoned)
    np.subtract(actual, reckoned, out=deviation)
    np.absolute(deviation, out=deviation)
    zero = np.less_equal(deviation, ZERO_DEVIATION_TOLERANCE, out=flags)
    if valid is not None:
        np.logical_and(zero, valid, out=zero)
    if zero.any():
        np.copyto(deviation, 0.0, where=zero)

    fill = None
    if lanes.last_zero is not None:
        # last_zero_elapsed at every row: the elapsed of the lane's
        # latest zero-deviation row, else what it carried in.  Elapsed
        # grows along the window and the carry is an earlier tick's
        # elapsed (or 0 after an update), so a running maximum selects
        # exactly the float the tick-by-tick assignment leaves.
        fill = scratch[7]
        np.copyto(fill, lanes.last_zero)
        np.copyto(fill, elapsed, where=zero)
        _scan(np.maximum, fill)

    np.multiply(lanes.gap, elapsed, out=work)
    if fill is not None:
        np.minimum(v_elapsed, lanes.slow_plateau, out=v_elapsed)
        np.minimum(work, lanes.fast_plateau, out=work)
        np.maximum(v_elapsed, work, out=bound)
    else:
        # max(min(vt, cap), min(gap*t, cap)) == min(max(vt, gap*t),
        # cap): min/max only select inputs, so the fused form picks
        # the same float the reference's nested form picks.  A static
        # lane's bound has no slow side; Proposition 4 caps at 2C/t.
        lead = work if family.static else np.maximum(v_elapsed, work,
                                                     out=bound)
        cap = lanes.cap
        if cap is None:
            cap = np.divide(lanes.two_cost, elapsed, out=work)
        np.minimum(lead, cap, out=bound)

    # Equation 3 screens prop1 lanes; every other level is the exact
    # test.  Travel since the update is compared as it is, unclamped:
    # against a positive level, max(x, 0) decides as x does.
    fire = family.fire
    if fire == "elapsed":
        reach = elapsed
    elif fire == "distance":
        reach = np.subtract(actual, lanes.last_travel, out=work)
    elif fire == "deviation":
        reach = np.multiply(deviation, lanes.factor, out=work)
    elif fill is not None:
        np.add(elapsed, fill, out=work)
        reach = np.multiply(deviation, work, out=work)
    else:
        reach = np.multiply(deviation, elapsed, out=work)
    candidate = np.greater_equal(reach, lanes.screen, out=flags)
    if valid is not None:
        np.logical_and(candidate, valid, out=candidate)
    at = candidate.reshape(-1).nonzero()[0]
    if not at.size:
        return tiles, fill, 0, None
    row, lane = np.divmod(at, candidate[0].size)
    at_deviation = deviation.reshape(-1)[at]
    at_elapsed = elapsed.reshape(-1)[at]
    if fire == "prop1":
        threshold = _threshold(at_deviation, at_elapsed,
                               None if fill is None else fill.reshape(-1)[at],
                               lanes.cost.reshape(-1)[lane])
        # A screen level of 0 also admits rows without a deviation.
        fired = ((at_deviation >= threshold * (1.0 - THRESHOLD_TOLERANCE))
                 & (at_deviation > 0.0)).nonzero()[0]
    else:
        threshold = lanes.threshold.reshape(-1)[lane]
        # The horizon rule, like Proposition 1, needs a deviation.
        fired = ((at_deviation > 0.0).nonzero()[0] if fire == "deviation"
                 else np.arange(at.size))
    if not fired.size:
        return tiles, fill, at.size, None
    if row[fired[0]] != row[fired[-1]]:
        # Keep each lane's earliest row: positions ascend row-major, so
        # that is the head of its run under a stable sort by lane.
        order = np.argsort(lane[fired], kind="stable")
        ranked = lane[fired[order]]
        head = np.ones(order.size, dtype=np.bool_)
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        fired = fired[order[head]]
    return tiles, fill, at.size, (
        row[fired], lane[fired], at_elapsed[fired], threshold[fired],
        at_deviation[fired])


def _scratch(shape: tuple[int, ...], use_delay: bool,
             record: bool) -> list[np.ndarray]:
    """The out-buffers of one :func:`_speculate` pass over ``shape``;
    the reckoned travel's is the deviation's unless it is recorded."""
    buffers = ([np.empty(shape) for _ in range(5)]
               + [np.empty(shape, dtype=np.bool_)])
    buffers.append(np.empty(shape) if record else buffers[2])
    return buffers + ([np.empty(shape)] if use_delay else [])


def _simulate_block(batch: VecTripBatch, policies: list[UpdatePolicy],
                    kernel_lanes: list, start: int, stop: int,
                    collect_events: bool, record_series: bool,
                    tally: dict[str, int]) -> list[list[TripResult]]:
    """Run trips ``[start, stop)`` of the batch under every policy.

    Returns one result row per policy.  State is ``(k, n)`` for ``k``
    policies by ``n`` trips and a window's tile ``(w, k, n)``; tick
    times ``(w, 1, 1)`` and the window's kinematics rows ``(w, 1, n)``
    broadcast against them.  ``kernel_lanes`` holds each policy's
    :func:`~repro.sim.engine.kernel_lane`, all of one kind.
    """
    n = stop - start
    k = len(policies)
    shape = (k, n)
    width = k * n
    num_ticks = batch.num_ticks
    dt = batch.dt
    duration = batch.duration
    times = batch.times
    travel = batch.travel[:, start:stop]
    speeds = batch.speeds[:, start:stop]
    tile_times = times.reshape(-1, 1, 1)
    tile_travel = travel[:, np.newaxis, :]
    # Flat lane c * n + j is trip j (column j of the block) under cost c.
    column = np.broadcast_to(np.arange(n), shape).reshape(-1)
    max_speeds = batch.max_speeds[start:stop][column]
    family_class, predictor, _ = kernel_lanes[0][0]
    family = KERNEL_FAMILIES[family_class]
    use_delay = family_class is DelayedLinearPolicy
    declare_average = predictor is AverageSpeedSinceUpdate
    # Per policy, then per lane: C, the step cost's h, the row constants.
    costs, steps, *constants = zip(*(lane[1] for lane in kernel_lanes))
    per_lane = [None if values[0] is None else np.repeat(
        np.array(values, dtype=np.float64), n).reshape(shape)
        for values in (costs, steps, *constants)]
    cost, step = per_lane[:2]
    level, factor, cap, threshold = per_lane[2:] or (
        _screen_level(cost, num_ticks, float(times[-1])), None, None, None)

    declared = np.empty(shape, dtype=np.float64)
    declared[:] = speeds[0]
    # A static lane's bound reads V itself, before its first update too.
    gap = batch.max_speeds[start:stop] - (
        np.zeros(shape) if family.static else declared)
    gap = np.where(gap < 0.0, 0.0, gap)
    lanes = _Lanes(
        declared=declared,
        last_time=np.zeros(shape, dtype=np.float64),
        last_travel=np.zeros(shape, dtype=np.float64),
        gap=gap,
        cost=cost,
        two_cost=2.0 * cost,
        screen=level,
        last_zero=np.zeros(shape, dtype=np.float64) if use_delay else None,
        slow_plateau=np.sqrt(2.0 * declared * cost) if use_delay else None,
        fast_plateau=np.sqrt(2.0 * gap * cost) if use_delay else None,
        factor=factor,
        cap=cap,
        threshold=threshold,
    )
    state = lanes.flat()  # where an update scatters, a replay gathers

    # Under the uniform cost a tick adds the identical `deviation * dt`
    # to deviation_integral and deviation_cost, so one accumulator
    # serves both metrics bit-for-bit; the step cost adds its own,
    # `rate * dt` with rate 1 above h, else 0.
    deviation_integral = np.zeros(shape, dtype=np.float64)
    step_integral = None if step is None else np.zeros(shape)
    uncertainty_integral = np.zeros(shape, dtype=np.float64)
    max_deviation = np.zeros(shape, dtype=np.float64)
    max_uncertainty = np.zeros(shape, dtype=np.float64)
    peak = np.empty(shape, dtype=np.float64)
    num_updates = np.zeros(width, dtype=np.int64)
    events: list[list[UpdateEvent]] = [[] for _ in range(width)]
    # The series store: deviation, bound and reckoned rows, as committed.
    stores = [np.empty((num_ticks, k, n)) for _ in range(3 * record_series)]

    p = probe()
    observed = p.enabled
    if observed:
        # One class per pass (simulate_batch checks), hence one name.
        deviation_hist, bound_hist, update_counter = _tick_instruments(
            p, policies[0].name)
        wall_start = perf_counter()

    # As many ticks as fit the tile, but no taller than a square one:
    # past that the per-window overhead is already amortized, while the
    # rows a fire sends back to be replayed keep growing with the window.
    window = max(1, min(num_ticks, TILE_ELEMENTS // width,
                        math.isqrt(TILE_ELEMENTS)))
    scratch = _scratch((window, k, n), use_delay, record_series)
    candidates = rounds = replayed = 0
    for i0 in range(1, num_ticks + 1, window):
        end = min(i0 + window, num_ticks + 1)
        if end - i0 != window:
            scratch = [buffer[:end - i0] for buffer in scratch]
        tiles, fill, admitted, fires = _speculate(
            tile_times[i0:end], tile_travel[i0:end], lanes, None, scratch,
            family)
        deviation, bound = tiles[:2]
        candidates += admitted
        if fill is not None:
            np.copyto(lanes.last_zero, fill[-1])

        # Settle the window: a row is final once no earlier row of its
        # lane can still fire.  `fires` holds first fires only, so the
        # rows up to and including them are final; apply the updates,
        # re-speculate the rest of those lanes, repeat.
        first = i0
        replaying = None
        while fires is not None:
            row, lane, fired_elapsed, fired_threshold, fired_deviation = fires
            if replaying is not None:
                lane = replaying[lane]
            tick = first + row
            trip = column[lane]
            fired_time = times[tick]
            fired_travel = travel[tick, trip]
            if family.static:
                new_speed = np.zeros(lane.size)
            elif declare_average:
                distance = fired_travel - state.last_travel[lane]
                distance = np.where(distance < 0.0, 0.0, distance)
                ratio = distance / fired_elapsed
                new_speed = np.where(fired_elapsed > 0.0, ratio,
                                     state.declared[lane])
            else:
                new_speed = speeds[tick, trip]
            new_speed = np.where(new_speed < 0.0, 0.0, new_speed)

            if collect_events:
                for flat, event_time, event_travel, event_speed, \
                        event_threshold, event_deviation in zip(
                            lane.tolist(), fired_time.tolist(),
                            fired_travel.tolist(), new_speed.tolist(),
                            fired_threshold.tolist(),
                            fired_deviation.tolist()):
                    events[flat].append(UpdateEvent(
                        time=event_time,
                        travel=event_travel,
                        declared_speed=event_speed,
                        threshold=event_threshold,
                        deviation_at_update=event_deviation,
                    ))
            num_updates[lane] += 1
            state.last_time[lane] = fired_time
            state.last_travel[lane] = fired_travel
            state.declared[lane] = new_speed
            fired_gap = max_speeds[lane] - new_speed
            fired_gap = np.where(fired_gap < 0.0, 0.0, fired_gap)
            state.gap[lane] = fired_gap
            if use_delay:
                fired_cost = state.cost[lane]
                state.last_zero[lane] = 0.0
                state.slow_plateau[lane] = np.sqrt(2.0 * new_speed * fired_cost)
                state.fast_plateau[lane] = np.sqrt(2.0 * fired_gap * fired_cost)

            # Replay the fired lanes under their new state, from the row
            # after the earliest fire; `valid` masks, lane by lane, the
            # rows up to its own fire, which stay as committed.
            later = tick < end - 1
            if not later.any():
                break
            replaying = lane[later]
            tick = tick[later]
            first = int(tick.min()) + 1
            valid = np.arange(first, end)[:, np.newaxis] > tick
            redone, redo_fill, admitted, fires = _speculate(
                times[first:end, np.newaxis],
                travel[first:end, column[replaying]],
                state.take(replaying), valid,
                _scratch(valid.shape, use_delay, record_series), family)
            for tile, redo in zip(tiles, redone):
                tile = tile.reshape(-1, width)
                tile[first - i0:, replaying] = np.where(
                    valid, redo, tile[first - i0:, replaying])
            if redo_fill is not None:
                state.last_zero[replaying] = redo_fill[-1]
            candidates += admitted
            rounds += 1
            replayed += replaying.size

        # Commit: the integrals take the window's rows in tick order,
        # the additions the tick loop makes; maxima only select.
        integrals = [(deviation_integral, deviation),
                     (uncertainty_integral, bound)]
        if step_integral is not None:
            integrals.append((step_integral, np.greater(
                deviation, step, out=scratch[5])))
        for integral, values in integrals:
            addends = np.multiply(values, dt, out=scratch[0])
            np.add(integral, addends[0], out=addends[0])
            _scan(np.add, addends)
            np.copyto(integral, addends[-1])
        np.maximum.reduce(deviation, axis=0, out=peak)
        np.maximum(max_deviation, peak, out=max_deviation)
        np.maximum.reduce(bound, axis=0, out=peak)
        np.maximum(max_uncertainty, peak, out=max_uncertainty)
        if observed:
            deviation_hist.observe_many(deviation)
            bound_hist.observe_many(bound)
        for store, tile in zip(stores, tiles):
            store[i0 - 1:end - 1] = tile

    tally["windows"] += -(-num_ticks // window)
    tally["window_ticks"] = max(tally["window_ticks"], window)
    tally["replay_rounds"] += rounds
    tally["replayed_lanes"] += replayed
    tally["screen_candidates"] += candidates

    # Python numbers from here on: metrics never hold an np.float64.
    series: list[TripSeries | None] = [None] * width
    if record_series:
        # What the reference loop appends per tick: a lane's store columns.
        series = [TripSeries(times[1:].tolist(), *lane, travel[1:, j].tolist())
                  for j, *lane in zip(column.tolist(), *(
                      store.reshape(num_ticks, width).T.tolist()
                      for store in stores))]
    rows: list[list[TripResult]] = []
    for c, (member, cost_value, lane_updates, dev_integrals, dev_costs,
            unc_integrals, max_deviations, max_uncertainties) in enumerate(zip(
                policies, costs, num_updates.reshape(shape).tolist(),
                deviation_integral.tolist(),
                (deviation_integral if step is None else step_integral
                 ).tolist(), uncertainty_integral.tolist(),
                max_deviation.tolist(), max_uncertainty.tolist())):
        row_results: list[TripResult] = []
        for j in range(n):
            dev_integral = dev_integrals[j]
            metrics = TripMetrics(
                policy=member.name,
                update_cost=cost_value,
                duration=duration,
                num_updates=lane_updates[j],
                deviation_integral=dev_integral,
                deviation_cost=dev_costs[j],
                total_cost=cost_value * lane_updates[j] + dev_costs[j],
                avg_deviation=dev_integral / duration,
                max_deviation=max_deviations[j],
                avg_uncertainty=unc_integrals[j] / duration,
                max_uncertainty=max_uncertainties[j],
            )
            row_results.append(TripResult(
                metrics=metrics,
                updates=events[c * n + j] if collect_events else [],
                series=series[c * n + j],
            ))
        rows.append(row_results)
    if observed:
        update_counter.inc(int(num_updates.sum()))
        _record_run(p, [result.metrics for row_results in rows
                        for result in row_results], num_ticks, wall_start)
    return rows
