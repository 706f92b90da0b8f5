"""Differential test: ``FleetSimulation.run`` against the tick-by-tick loop.

``FleetSimulation.run`` asks the lane dispatcher for every vehicle's
update events (a kernel pass per group of kernel lanes, the
reference loop for the rest, all on tick grids) and replays them in
tick order.
``tests/oracle/fleet_reference.py`` steps one onboard computer per
vehicle on the real trip.  Two identically built fleets, one run each
way, must leave the same update log — message for message on ``repr``,
so ``-0.0`` and the last digit count — the same per-vehicle counts, and
must show every ``on_tick(t)`` the same database.

Generated fleets have 1-80 vehicles in up to four (policy, update cost,
trip duration) blocks, so kernel passes range from one lane to eighty;
policies are dl/ail/cil, fixed-threshold (kernel lanes) and adaptive,
which is no kernel policy; costs repeat across distinct policy objects; two of
the four durations are no multiple of either ``dt``; vehicles are
inserted in a drawn order; the run is as long as the longest trip,
shorter than some trips, or longer than all; with and without a hook.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.routes.generators import straight_route
from repro.sim.fleet import FleetSimulation
from repro.sim.speed_curves import CityCurve, HighwayCurve
from repro.sim.trip import Trip
from tests.conftest import examples
from tests.oracle import fleet_reference
from tests.oracle.policy_reference import watch_dispatch

POLICIES = ("dl", "ail", "cil", "fixed-threshold", "adaptive")
COSTS = (0.05, 0.2, 1.0)
DURATIONS = (1.0, 2.0, 3.05, 4.33)
RUN_DURATIONS = (None, 0.95, 2.5, 7.0)
blocks = st.tuples(st.sampled_from(POLICIES), st.sampled_from(COSTS),
                   st.sampled_from(DURATIONS))


@st.composite
def fleets(draw):
    """One ``(policy name, update cost, trip minutes)`` per vehicle."""
    size = draw(st.integers(1, 80))
    cuts = sorted(set(draw(st.lists(st.integers(0, size), max_size=3))))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
    vehicles = [draw(blocks) for _ in sizes]
    return draw(st.permutations(
        [vehicle for vehicle, n in zip(vehicles, sizes) for _ in range(n)]))


def build(vehicles, dt, seed):
    database = MovingObjectDatabase()
    database.schema.define_mobile_point_class("vehicle")
    fleet = FleetSimulation(database, dt=dt)
    for i, (policy_name, cost, minutes) in enumerate(vehicles):
        curve_class = (CityCurve, HighwayCurve)[i % 2]
        curve = curve_class(minutes, random.Random(seed * 1000 + i))
        route = straight_route(curve.max_speed() * minutes + 1.0, f"r{i}",
                               origin=(0.1 * i, -0.2 * i),
                               heading_degrees=37.0 * i)
        kwargs = {"bound": 0.1} if policy_name == "fixed-threshold" else {}
        # A name, or a policy class to instantiate directly.
        policy = (policy_name(cost) if isinstance(policy_name, type)
                  else make_policy(policy_name, cost, **kwargs))
        fleet.add_vehicle(f"v{i}", "vehicle", Trip(route, curve), policy)
    return fleet


def check(vehicles, dt, seed, duration, hooked):
    runs = []
    for run in (FleetSimulation.run, fleet_reference.run):
        fleet = build(vehicles, dt, seed)
        database = fleet.database
        seen = []

        def hook(t):
            seen.append((t, database.clock_time, len(database.update_log)))

        counts = run(fleet, duration, hook if hooked else None)
        runs.append((
            [repr(message) for message in database.update_log.messages()],
            counts, seen, fleet,
        ))
    (log, counts, seen, fleet), (ref_log, ref_counts, ref_seen, _) = runs
    assert log == ref_log
    assert counts == ref_counts
    assert seen == ref_seen and bool(seen) == hooked
    assert counts == {object_id: vehicle.messages_sent
                      for object_id, vehicle in fleet.vehicles.items()}
    return log


@settings(max_examples=examples(25))
@given(fleets(), st.sampled_from((0.1, 1.0 / 30.0)), st.integers(0, 50),
       st.sampled_from(RUN_DURATIONS), st.booleans())
def test_fleet_run_equals_the_tick_by_tick_loop(vehicles, dt, seed,
                                                duration, hooked):
    check(vehicles, dt, seed, duration, hooked)


@pytest.mark.parametrize("size", [1, 33])
def test_any_group_size_rides_one_pass(size, monkeypatch):
    """A group of one or of 33 lanes, with other lanes woven through
    it, rides one kernel pass (there is no lane floor); the one lane
    the kernel cannot take runs alone."""
    passes, runs = watch_dispatch(monkeypatch)
    vehicles = [("ail", 0.2, 3.05)] * size
    vehicles[5:5] = [("adaptive", 0.2, 3.05), ("ail", 0.2, 2.0),
                     ("dl", 0.05, 3.05)]
    assert check(vehicles, 0.1, 7, None, True)
    assert check(vehicles, 0.1, 7, 2.5, False)
    # One pass per (policy class, tick layout, cost) group, in order of
    # first appearance; each vehicle has its own trip, so no two cost
    # rows share their columns.
    groups = {}
    for vehicle in vehicles:
        if vehicle[0] != "adaptive":
            groups[vehicle] = groups.get(vehicle, 0) + 1
    assert ([batch.size for batch, _ in passes]
            == list(groups.values()) * 2 == [size, 1, 1] * 2)
    assert runs == ["adaptive"] * 2
