"""Reference-vs-kernel equivalence: exact floats, not almost.

The vectorized engine's whole contract is that it is invisible: every
metric field and every update event must be byte-identical to the
reference tick loop, ``PolicySimulation._run_generic``
(``tests/oracle/policy_reference.py``) — directly, lane by lane, on
``repr``.  ``PolicySimulation.run`` and ``simulate_trip`` are the kernel
themselves and never the other side here.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.policies import make_policy
from repro.core.speed import AverageSpeedSinceUpdate
from repro.errors import SimulationError
from repro.exec import TickGrid
from repro.sim.speed_curves import CityCurve, HighwayCurve, RushHourCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch
from tests.oracle.policy_reference import assert_same, reference_run

DT = 1.0 / 30.0
CURVES = {
    "city": CityCurve,
    "highway": HighwayCurve,
    "rush-hour": RushHourCurve,
}


def build_grid(kind="city", duration=20.0, seed=11, dt=DT, noise=0.0):
    """A curve's grid; with ``noise``, its travel column jittered by up
    to that many miles per tick and clamped at 0 — no longer monotone,
    as a position sensor with bounded error reads it (E18's input)."""
    trip = Trip.synthetic(CURVES[kind](duration, random.Random(seed)))
    grid = TickGrid.build(trip, dt)
    if not noise:
        return grid
    rng = random.Random(seed + 1)
    jitter = [rng.uniform(-noise, noise) for _ in range(grid.num_ticks + 1)]
    return TickGrid(dt, grid.duration, grid.max_speed, grid.times,
                    np.maximum(grid.travel + jitter, 0.0), grid.speeds)


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
@pytest.mark.parametrize("kind", sorted(CURVES))
def test_batch_of_one_matches_scalar_fast_path(policy_name, kind):
    grid = build_grid(kind)
    policy = make_policy(policy_name, 5.0)
    vec = simulate_batch(VecTripBatch.from_grids([grid]), policy)[0]
    assert_same(vec, reference_run(grid, policy))


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
def test_randomized_mixed_batch_matches_generic_engine(policy_name):
    rng = random.Random(77)
    trips = [
        Trip.synthetic(CURVES[kind](15.0, random.Random(rng.randrange(1 << 20))))
        for kind in ("city", "highway", "rush-hour", "city", "highway")
    ]
    grids = [TickGrid.build(trip, DT) for trip in trips]
    for cost in (0.5, 2.0, 10.0):
        policy = make_policy(policy_name, cost)
        vec = simulate_batch(VecTripBatch.from_grids(grids), policy)
        for grid, row in zip(grids, vec):
            assert_same(row, reference_run(grid, policy))


def reference_lane(grid, policy_name, cost):
    """The oracle of one (policy, cost, trip) lane: ``_run_generic``."""
    return reference_run(grid, make_policy(policy_name, cost))


MIXED_KINDS = ("city", "highway", "rush-hour", "city", "highway")


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
@pytest.mark.parametrize("costs", [
    (5.0,),
    (0.5, 2.0, 2.0, 0.0, 10.0, 40.0),  # a duplicate and a free update
])
@pytest.mark.parametrize("num_trips", [1, 5])
def test_cost_axis_matches_scalar_fast_path_per_lane(policy_name, costs,
                                                     num_trips):
    grids = [build_grid(kind, duration=15.0, seed=40 + j)
             for j, kind in enumerate(MIXED_KINDS[:num_trips])]
    batch = VecTripBatch.from_grids(grids)
    policies = [make_policy(policy_name, cost) for cost in costs]
    fused = simulate_batch(batch, policies)
    assert len(fused) == len(costs) * num_trips
    for c, cost in enumerate(costs):
        for j, grid in enumerate(grids):
            assert_same(fused[c * num_trips + j],  # event for event
                        reference_lane(grid, policy_name, cost), (c, j))
    # The fused pass is the single-cost calls laid side by side.
    singles = [row for policy in policies
               for row in simulate_batch(batch, policy)]
    assert fused == singles
    without = simulate_batch(batch, policies, collect_events=False)
    assert [row.metrics for row in without] == [row.metrics for row in fused]
    assert all(row.updates == [] for row in without)


def test_cost_axis_over_repeated_grids():
    base = [build_grid("city", seed=s) for s in range(3)]
    cycled = [base[i % 3] for i in range(24)]
    costs = (1.0, 5.0, 5.0, 20.0)
    fused = simulate_batch(VecTripBatch.from_grids(cycled),
                           [make_policy("dl", cost) for cost in costs])
    for c, cost in enumerate(costs):
        for i in range(24):
            assert_same(fused[c * 24 + i],
                        reference_lane(base[i % 3], "dl", cost), (c, i))


def test_cost_axis_blocks_along_the_trip_axis(monkeypatch):
    from repro.vec import engine

    grids = [build_grid(kind, duration=10.0, seed=60 + j)
             for j, kind in enumerate(MIXED_KINDS)]
    batch = VecTripBatch.from_grids(grids)
    policies = [make_policy("ail", cost) for cost in (1.0, 4.0, 9.0)]
    whole = simulate_batch(batch, policies)
    for lanes in (1, 3, 7):  # fewer lanes than costs, one trip, two trips
        monkeypatch.setattr(engine, "BLOCK_VEHICLES", lanes)
        assert simulate_batch(batch, policies) == whole


def test_results_hold_python_numbers_only():
    grids = [build_grid("rush-hour"), build_grid("city")]
    rows = simulate_batch(VecTripBatch.from_grids(grids),
                          [make_policy("dl", 1.0), make_policy("dl", 3.0)])
    rows.append(reference_lane(grids[0], "dl", 1.0))
    assert any(row.updates for row in rows)
    for row in rows:
        metrics = row.metrics
        assert type(metrics.num_updates) is int
        for name in ("update_cost", "duration", "deviation_integral",
                     "deviation_cost", "total_cost", "avg_deviation",
                     "max_deviation", "avg_uncertainty", "max_uncertainty"):
            assert type(getattr(metrics, name)) is float, name
        for event in row.updates:
            for name in ("time", "travel", "declared_speed", "threshold",
                         "deviation_at_update"):
                assert type(getattr(event, name)) is float, name


def test_mixed_policy_classes_are_rejected():
    batch = VecTripBatch.from_grids([build_grid()])
    with pytest.raises(SimulationError):
        simulate_batch(batch, [make_policy("dl", 5.0), make_policy("ail", 5.0)])
    with pytest.raises(SimulationError):
        simulate_batch(batch, [])
    with pytest.raises(SimulationError):
        simulate_batch(batch, [make_policy("dl", 5.0),
                               make_policy("adaptive", 5.0)])
    with pytest.raises(SimulationError):  # one class, two predictors
        simulate_batch(batch, [
            make_policy("periodic", 5.0),
            make_policy("periodic", 5.0,
                        speed_predictor=AverageSpeedSinceUpdate())])


def test_repeated_grids_match_distinct_conversion():
    base = [build_grid("city", seed=s) for s in range(3)]
    cycled = [base[i % 3] for i in range(24)]
    policy = make_policy("dl", 5.0)
    rows = simulate_batch(VecTripBatch.from_grids(cycled), policy)
    singles = [simulate_batch(VecTripBatch.from_grids([g]), policy)[0]
               for g in base]
    for i, row in enumerate(rows):
        assert row.metrics == singles[i % 3].metrics
        assert row.updates == singles[i % 3].updates


def test_collect_events_off_keeps_metrics_identical():
    grid = build_grid("rush-hour")
    policy = make_policy("ail", 2.0)
    with_events = simulate_batch(VecTripBatch.from_grids([grid]), policy)[0]
    without = simulate_batch(VecTripBatch.from_grids([grid]), policy,
                             collect_events=False)[0]
    assert without.metrics == with_events.metrics
    assert without.updates == []


def test_unsupported_policy_is_rejected():
    grid = build_grid()
    batch = VecTripBatch.from_grids([grid])
    with pytest.raises(SimulationError):
        simulate_batch(batch, make_policy("adaptive", 5.0))


def test_empty_batch_is_rejected():
    with pytest.raises(SimulationError):
        VecTripBatch.from_grids([])


def test_mismatched_tick_layouts_are_rejected():
    coarse = build_grid(dt=0.1)
    fine = build_grid(dt=DT)
    with pytest.raises(SimulationError):
        VecTripBatch.from_grids([coarse, fine])


def test_batch_arrays_are_bitwise_the_grid_columns():
    grids = [build_grid("highway", seed=s) for s in range(4)]
    batch = VecTripBatch.from_grids(grids)
    assert batch.travel.dtype == np.float64
    assert batch.speeds.dtype == np.float64
    for j, grid in enumerate(grids):
        assert batch.travel[:, j].tolist() == list(grid.travel)
        assert batch.speeds[:, j].tolist() == list(grid.speeds)
