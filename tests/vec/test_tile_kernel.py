"""The tile kernel at its window edges, against the reference loop.

``simulate_batch`` advances windows of ``W = min(TILE_ELEMENTS // lanes,
isqrt(TILE_ELEMENTS))`` ticks, speculating that no lane fires and replaying the lanes that did.
The sweep only ever runs it at ``W = 17``; these cases patch the budget
so a fire lands on a window's first row, its last row, twice or three
times inside one window, on consecutive ticks, next to a dl
zero-deviation run — and compare every ``TripMetrics`` and
``UpdateEvent`` with :meth:`PolicySimulation._run_generic`
(``tests/oracle/policy_reference.py``) on ``repr``, so ``-0.0`` and the
last digit count.  The kernel's span counters say whether the case that
was built is the case that ran.  Every window length also runs one
lane of each constant-threshold, distance- and elapsed-fired row of the
family table (``FAMILIES``).

The Equation-3 screen is checked separately: whatever the exact
Proposition-1 test fires, the kernel must have admitted.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.cost import StepDeviationCost
from repro.core.policies import make_policy
from repro.core.policy import THRESHOLD_TOLERANCE, OnboardState
from repro.core.speed import AverageSpeedSinceUpdate
from repro.exec import TickGrid
from repro.obs.registry import use_tracer
from repro.obs.tracing import Tracer
from repro.sim.engine import KernelFamily
from repro.sim.speed_curves import PiecewiseConstantCurve
from repro.sim.trip import Trip
from repro.vec import engine
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch
from tests.conftest import examples
from tests.oracle.policy_reference import assert_same, reference_run
from tests.vec.test_engine_equivalence import CURVES, build_grid

POLICIES = ("dl", "ail", "cil")
#: One lane of each constant-threshold, distance- and elapsed-fired row
#: (the periodic one declares its average speed under the step cost);
#: ``make_policy`` keywords by name.
FAMILIES = {
    "fixed-threshold": {"bound": 0.05},
    "traditional": {"precision": 0.3},
    "periodic": {"period": 0.45, "speed_predictor": AverageSpeedSinceUpdate(),
                 "cost_function": StepDeviationCost(0.02)},
    "horizon": {"horizon": 2.0},
}

#: 40 ticks of 0.1 min; the speed changes after ticks 10, 17, 26 and 32,
#: so under dl and cil (which declare the current speed) the deviation
#: is exactly zero between an update and the next change of speed.
STEPS = [(1.0, 1.0), (0.7, 0.0), (0.9, 1.5), (0.6, 0.2), (0.8, 1.0)]
OTHER_STEPS = [(0.4, 0.3), (1.6, 1.2), (0.5, 0.0), (1.5, 0.8)]
THIRD_STEPS = [(2.2, 0.9), (1.8, 0.1)]


def step_grid(segments=STEPS, dt=0.1):
    return TickGrid.build(
        Trip.synthetic(PiecewiseConstantCurve(segments)), dt)


#: ``(kind, duration, seed, dt, noise)`` -> the grid, built once.
curve_grid = functools.lru_cache(maxsize=None)(build_grid)


def run_reference(grid, policy_name, cost):
    """The oracle of one lane: ``_run_generic``."""
    return reference_run(grid, make_policy(policy_name, cost,
                                           **FAMILIES.get(policy_name, {})))


def fire_ticks(result, dt):
    return [round(event.time / dt) for event in result.updates]


def check(monkeypatch, grids, policy_name, costs, window=None, budget=None,
          collect_events=True, oracle=run_reference):
    """Run the kernel at a patched budget; compare every lane; return
    the span's counters."""
    if budget is None:
        # W = min(budget // lanes, isqrt(budget)), so:
        budget = window * max(window, len(costs) * len(grids))
    monkeypatch.setattr(engine, "TILE_ELEMENTS", budget)
    policies = [make_policy(policy_name, cost, **FAMILIES.get(policy_name, {}))
                for cost in costs]
    with use_tracer(Tracer()) as tracer:
        rows = simulate_batch(VecTripBatch.from_grids(grids), policies,
                              collect_events=collect_events)
    assert len(rows) == len(costs) * len(grids)
    for c, cost in enumerate(costs):
        for j, grid in enumerate(grids):
            lane = rows[c * len(grids) + j]
            reference = oracle(grid, policy_name, cost)
            if collect_events:
                assert_same(lane, reference, (c, j))
            else:
                assert repr(lane.metrics) == repr(reference.metrics), (c, j)
                assert lane.updates == []
    (record,) = tracer.spans_named("simulate_trip_batch")
    return record.attrs


@pytest.mark.parametrize("policy_name", POLICIES + tuple(FAMILIES))
@pytest.mark.parametrize("window", [1, 2, 3, 7, 39, 40, 41, 1000])
def test_every_window_length_matches_run_fast(monkeypatch, policy_name,
                                              window):
    grids = [step_grid(), step_grid(OTHER_STEPS), step_grid(THIRD_STEPS)]
    costs = (0.5, 0.0, 0.05, 0.5, 1e-6, 5.0)  # a duplicate, a free update
    attrs = check(monkeypatch, grids, policy_name, costs, window=window)
    ticks = min(window, 40)
    assert attrs["window_ticks"] == ticks
    assert attrs["windows"] == math.ceil(40 / ticks)
    if window == 1:
        assert attrs["replay_rounds"] == attrs["replayed_lanes"] == 0
    else:
        assert attrs["replay_rounds"] > 0
    if window == 40:  # one window: some lane fires again inside it
        assert max(len(run_reference(grid, policy_name, 0.05).updates)
                   for grid in grids) >= 2


@pytest.mark.parametrize("policy_name,cost,fires", [
    ("ail", 0.5, [17, 33]),
    ("dl", 0.5, [15, 24, 34]),
    ("cil", 0.3, [15, 23, 32]),
])
def test_a_lane_fires_again_inside_one_window(monkeypatch, policy_name, cost,
                                              fires):
    grid = step_grid()
    assert fire_ticks(run_reference(grid, policy_name, cost), 0.1) == fires
    attrs = check(monkeypatch, [grid], policy_name, [cost], window=40)
    # One lane, one window: a replay round per fire.
    assert attrs["windows"] == 1
    assert attrs["replay_rounds"] == attrs["replayed_lanes"] == len(fires)
    # Two windows: the replays of each are counted.
    attrs = check(monkeypatch, [grid], policy_name, [cost], window=25)
    assert attrs["windows"] == 2
    assert attrs["replay_rounds"] == len(fires)


def test_fire_on_a_windows_last_and_first_row(monkeypatch):
    grid = step_grid()
    assert fire_ticks(run_reference(grid, "cil", 1.0), 0.1) == [31]
    # Window 1..31: the fire is its last row, nothing is left to replay.
    attrs = check(monkeypatch, [grid], "cil", [1.0], window=31)
    assert (attrs["windows"], attrs["replay_rounds"]) == (2, 0)
    # Windows 1..30, 31..40 and 1..15, 16..30, 31..40: first row.
    for window, windows in ((30, 2), (15, 3)):
        attrs = check(monkeypatch, [grid], "cil", [1.0], window=window)
        assert attrs["windows"] == windows
        assert attrs["replay_rounds"] == attrs["replayed_lanes"] == 1
    # The run's very last tick: the speed changes once more after tick
    # 39, so a free update fires on tick 40 — the last row of the last
    # (for w = 3, partial) window.
    late = step_grid(STEPS[:-1] + [(0.7, 1.0), (0.1, 0.0)])
    assert fire_ticks(run_reference(late, "cil", 0.0), 0.1)[-1] == 40
    for window in (1, 3, 40):
        check(monkeypatch, [late], "cil", [0.0, 0.3], window=window)


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("window", [2, 5, 90])
def test_free_updates_fire_on_consecutive_ticks(monkeypatch, policy_name,
                                                window):
    # C = 0: every tick with a deviation fires, so a window of w ticks
    # takes up to w - 1 replay rounds.
    grid = curve_grid("highway", 3.0, 5, 1.0 / 30.0)
    reference = run_reference(grid, policy_name, 0.0)
    ticks = fire_ticks(reference, grid.dt)
    assert ticks == list(range(1, 91))  # the speed never holds still
    attrs = check(monkeypatch, [grid], policy_name, [0.0], window=window)
    assert attrs["replay_rounds"] >= len(ticks) // 2
    assert attrs["screen_candidates"] >= len(ticks)


@pytest.mark.parametrize("window", [1, 3, 4, 40])
def test_dl_zero_runs_across_edges_and_after_a_fire(monkeypatch, window):
    grid = step_grid()
    reference = run_reference(grid, "dl", 0.05)
    assert fire_ticks(reference, 0.1) == [11, 18, 27, 34]
    travel = grid.travel.tolist()
    for event, tick in zip(reference.updates, (11, 18, 27, 34)):
        # The tick after each fire has zero deviation: a zero run that
        # starts right after a fire and ends in a fire, in one window
        # (w = 40) or across an edge (w = 3: 12 | 13..15 | 16..18).
        predicted = event.travel + event.declared_speed * 0.1
        assert abs(travel[tick + 1] - predicted) <= 1e-9
    # The first fire's threshold carries the delay of the zero run
    # 1..10, which at w = 3 and 4 was handed over window edges.
    first = reference.updates[0]
    slope = first.deviation_at_update / 0.1
    assert first.threshold == pytest.approx(
        math.sqrt(slope * slope + 2.0 * slope * 0.05) - slope)  # delay 1.0
    check(monkeypatch, [grid], "dl", [0.05, 0.3], window=window)


@pytest.mark.parametrize("policy_name", POLICIES)
def test_one_trip_blocks_smaller_than_the_cost_axis(monkeypatch, policy_name):
    costs = (1.0, 0.2, 0.2, 0.0)
    grids = [step_grid(), step_grid(OTHER_STEPS)]
    monkeypatch.setattr(engine, "BLOCK_VEHICLES", 3)  # < k: one trip each
    attrs = check(monkeypatch, grids, policy_name, costs, budget=6 * 6)
    assert attrs["window_ticks"] == 6
    assert attrs["windows"] == 2 * math.ceil(40 / 6)
    check(monkeypatch, grids[:1], policy_name, costs, window=9)  # n = 1
    check(monkeypatch, grids, policy_name, costs, window=9,
          collect_events=False)


# ----------------------------------------------------------------------
# The differential: generated batches at a drawn budget
# ----------------------------------------------------------------------

COSTS = (0.0, 1e-6, 0.05, 1.0, 5.0, 40.0)
DURATIONS = (2.0, 3.05, 4.33)


@functools.lru_cache(maxsize=None)
def cached_oracle(kind, duration, seed, dt, noise, policy_name, cost):
    return run_reference(curve_grid(kind, duration, seed, dt, noise),
                         policy_name, cost)


@st.composite
def batches(draw):
    duration = draw(st.sampled_from(DURATIONS))
    dt = draw(st.sampled_from((0.1, 1.0 / 30.0, 1.0 / 60.0)))
    # Clean travel, or a sensor's: jittered, no longer monotone.
    lanes = draw(st.lists(
        st.tuples(st.sampled_from(sorted(CURVES)), st.integers(0, 5),
                  st.sampled_from((0.0, 0.0, 0.02, 0.3))),
        min_size=1, max_size=40))
    return [(kind, duration, seed, dt, noise) for kind, seed, noise in lanes]


@settings(max_examples=examples(120))
@given(batch=batches(),
       policy_name=st.sampled_from(POLICIES),
       costs=st.lists(st.sampled_from(COSTS), min_size=1, max_size=4),
       budget=st.one_of(st.integers(1, 400), st.integers(400, 40_000)),
       collect_events=st.booleans())
def test_generated_batches_match_run_fast(batch, policy_name, costs, budget,
                                          collect_events):
    keys = {id(grid): key for key in batch
            for grid in [curve_grid(*key)]}
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(monkeypatch, [curve_grid(*key) for key in batch], policy_name,
              costs, budget=budget, collect_events=collect_events,
              oracle=lambda grid, name, cost: cached_oracle(
                  *keys[id(grid)], name, cost))


# ----------------------------------------------------------------------
# The screen: what the exact test fires, Equation 3 admitted
# ----------------------------------------------------------------------

def exact_fires(deviation, elapsed, delay, cost):
    """The reference decision: dl's own ``decide`` (with no delay, the
    arithmetic of ail and cil)."""
    state = OnboardState(
        elapsed=elapsed, deviation=deviation, distance_since_update=0.0,
        elapsed_at_last_zero_deviation=delay, current_speed=0.0,
        average_speed_since_update=0.0, trip_average_speed=0.0,
        declared_speed=0.0, trip_elapsed=elapsed)
    return make_policy("dl", cost).decide(state).send


def kernel_fires(deviation, elapsed, delay, cost, use_delay,
                 num_ticks=3600):
    """One lane, one row of ``_speculate`` in exactly this state."""
    scalar = lambda value: np.array([float(value)])
    lanes = engine._Lanes(
        declared=scalar(0.0), last_time=scalar(0.0), last_travel=scalar(0.0),
        gap=scalar(1.0), cost=scalar(cost), two_cost=scalar(2.0 * cost),
        screen=engine._screen_level(scalar(cost), num_ticks, elapsed),
        last_zero=scalar(delay) if use_delay else None,
        slow_plateau=scalar(1.0) if use_delay else None,
        fast_plateau=scalar(1.0) if use_delay else None,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        *_, admitted, fires = engine._speculate(
            np.array([[elapsed]]), np.array([[deviation]]), lanes, None,
            engine._scratch((1, 1), use_delay, False), KernelFamily("prop1"))
    assert fires is None or admitted == 1
    return fires is not None


def near(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


SCREEN_COSTS = (0.0, 1e-300, 1e-120, 1e-100, 1e-12, 1e-6, 0.05, 1.0, 40.0,
                1e6)


@settings(max_examples=examples(300))
@given(elapsed=st.one_of(st.sampled_from((1.0 / 60.0, 0.1)),
                         st.floats(1.0 / 60.0, 600.0)),
       delay_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       cost=st.one_of(st.sampled_from(SCREEN_COSTS),
                      st.floats(1e-12, 100.0)),
       ulps=st.integers(-4, 4),
       use_delay=st.booleans())
def test_screen_admits_what_the_exact_test_fires(elapsed, delay_share, cost,
                                                 ulps, use_delay):
    # A zero tick is an earlier tick: the delay trails elapsed by >= dt.
    delay = (min(delay_share * elapsed, elapsed - 1.0 / 60.0)
             if use_delay else 0.0)
    delay = max(delay, 0.0)
    # Equation 3 with equality, then a few ulps either side of it.
    boundary = 2.0 * cost / (elapsed + delay)
    for share in (1.0, 1.0 - THRESHOLD_TOLERANCE, 1.0 - 1e-6):
        deviation = near(max(boundary, 2e-9) * share, ulps)
        expected = exact_fires(deviation, elapsed, delay, cost)
        assert kernel_fires(deviation, elapsed, delay, cost,
                            use_delay) == expected, (deviation, delay)


@pytest.mark.parametrize("use_delay", [False, True])
@pytest.mark.parametrize("cost", [0.0, 1e-300, 1e-120, 1e-12])
def test_screen_at_the_edge_of_its_domain(cost, use_delay):
    # Below the cost floor every lane with a deviation is a candidate:
    # the behaviour of the kernel before it had a screen.
    dt = 1.0 / 60.0
    for deviation in (2e-9, 1e-3, 5.0):
        for elapsed, delay in ((dt, 0.0), (30.0, 29.0), (30.0, 30.0 - dt)):
            delay = delay if use_delay else 0.0
            assert kernel_fires(deviation, elapsed, delay, cost, use_delay) \
                == exact_fires(deviation, elapsed, delay, cost)
    level = engine._screen_level(np.array([cost, 1.0]), 3600, 60.0)
    assert (level[0] == 0.0) == (cost < 1e-100)
    assert level[1] == 2.0 * (1.0 - 1e-6)
    # A grid too fine for the dl cancellation bound switches it off too.
    assert engine._screen_level(np.array([1.0]), 10 ** 9, 60.0)[0] == 0.0
