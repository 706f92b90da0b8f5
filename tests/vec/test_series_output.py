"""The kernel's per-tick series, against the reference loop's.

``record_series`` no longer sends a dl/ail/cil run to the reference
loop: :func:`simulate_batch` keeps each window's committed deviation,
bound and dead-reckoned travel tiles.  A replay patches all three
across the rows after a fire, so every case here runs with windows
shorter than the trip, and compares the whole :class:`TripResult` —
series included — with ``_run_generic(record_series=True)``
(``tests/oracle/policy_reference.py``) on ``repr``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.policies import make_policy
from repro.sim.engine import PolicySimulation
from repro.sim.grid import GridTrip
from repro.vec import engine
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch
from tests.conftest import examples
from tests.oracle.policy_reference import reference_run
from tests.vec.test_engine_equivalence import CURVES, build_grid
from tests.vec.test_tile_kernel import (
    COSTS,
    OTHER_STEPS,
    POLICIES,
    THIRD_STEPS,
    batches,
    curve_grid,
    step_grid,
)

WINDOWS = [1, 2, 3, 7, 39, 40, 41, 1000]  # test_tile_kernel's lengths
FIELDS = [field.name for field in dataclasses.fields(
    reference_run(step_grid(), make_policy("cil", 1.0),
                  record_series=True).series)]


def assert_series_equal(result, reference, where=None):
    """The whole result on ``repr``, field by field for a usable diff."""
    for name in FIELDS:
        assert repr(getattr(result.series, name)) == repr(
            getattr(reference.series, name)), (name, where)
    assert repr(result) == repr(reference), where


def set_window(monkeypatch, window, lanes):
    # W = min(budget // lanes, isqrt(budget))
    monkeypatch.setattr(engine, "TILE_ELEMENTS", window * max(window, lanes))


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("cost", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("window", WINDOWS)
def test_run_with_series_matches_the_reference_loop(monkeypatch, policy_name,
                                                    cost, window):
    # 17.3 / 0.07 = 247.14…: the last tick stops short of the duration.
    grid = build_grid("city", duration=17.3, seed=3, dt=0.07)
    assert grid.num_ticks * grid.dt < grid.duration
    set_window(monkeypatch, window, 1)
    policy = make_policy(policy_name, cost)
    result = PolicySimulation(GridTrip(grid), policy, dt=grid.dt,
                              grid=grid).run(record_series=True)
    reference = reference_run(grid, policy, record_series=True)
    assert reference.updates
    assert_series_equal(result, reference)
    assert all(type(value) is float
               for name in FIELDS for value in getattr(result.series, name))


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("window", [3, 7, 1000])
def test_cost_axis_of_three_over_seven_trips(monkeypatch, policy_name,
                                             window):
    grids = [step_grid(), step_grid(OTHER_STEPS), step_grid(THIRD_STEPS),
             curve_grid("city", 4.0, 1, 0.1, 0.0),
             curve_grid("highway", 4.0, 2, 0.1, 0.3),   # a sensor's travel
             curve_grid("rush-hour", 4.0, 3, 0.1, 0.02),
             step_grid()]                               # a repeated column
    costs = (0.5, 0.0, 5.0)
    policies = [make_policy(policy_name, cost) for cost in costs]
    batch = VecTripBatch.from_grids(grids)
    set_window(monkeypatch, window, len(costs) * len(grids))
    recorded = simulate_batch(batch, policies, record_series=True)
    plain = simulate_batch(batch, policies)
    assert len(recorded) == len(plain) == len(costs) * len(grids)
    for c, policy in enumerate(policies):
        for j, grid in enumerate(grids):
            lane = recorded[c * len(grids) + j]
            assert_series_equal(
                lane, reference_run(grid, policy, record_series=True), (c, j))
            # Recording changes nothing else, and is off unless asked for.
            unrecorded = plain[c * len(grids) + j]
            assert unrecorded.series is None
            assert repr(dataclasses.replace(lane, series=None)) == repr(
                unrecorded), (c, j)
    # No two lanes share a list: a caller may edit the one it was given.
    lists = [id(getattr(lane.series, name))
             for lane in recorded for name in FIELDS]
    assert len(set(lists)) == len(lists)


def test_blocks_along_the_trip_axis_keep_their_own_series(monkeypatch):
    grids = [curve_grid(kind, 3.05, seed, 1.0 / 30.0, 0.02)
             for seed, kind in enumerate(sorted(CURVES) * 2)]
    policies = [make_policy("dl", cost) for cost in (0.05, 1.0)]
    batch = VecTripBatch.from_grids(grids)
    whole = simulate_batch(batch, policies, record_series=True)
    monkeypatch.setattr(engine, "BLOCK_VEHICLES", 4)  # two trips a block
    assert repr(simulate_batch(batch, policies, record_series=True)) == repr(
        whole)
    for j, grid in enumerate(grids):
        assert_series_equal(
            whole[len(grids) + j],
            reference_run(grid, policies[1], record_series=True), j)


@settings(max_examples=examples(60))
@given(batch=batches(),
       policy_name=st.sampled_from(POLICIES),
       costs=st.lists(st.sampled_from(COSTS), min_size=1, max_size=3),
       budget=st.one_of(st.integers(1, 400), st.integers(400, 40_000)))
def test_generated_batches_record_the_reference_series(batch, policy_name,
                                                       costs, budget):
    grids = [curve_grid(*key) for key in batch[:12]]
    policies = [make_policy(policy_name, cost) for cost in costs]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "TILE_ELEMENTS", budget)
        rows = simulate_batch(VecTripBatch.from_grids(grids), policies,
                              record_series=True)
    for c, policy in enumerate(policies):
        for j, grid in enumerate(grids):
            assert_series_equal(
                rows[c * len(grids) + j],
                reference_run(grid, policy, record_series=True),
                (batch[j], policy_name, costs[c]))
