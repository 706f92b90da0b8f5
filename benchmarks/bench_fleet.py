"""``FleetSimulation.run`` alone: the diagnostic for the ``sim.fleet.run``
layer of the end-to-end ledger (``benchmarks/e2e``).

A fleet runs once, so every timed call needs a fleet that has not run.
The expensive part of building one — routes and speed curves — is done
once; ``unrun_fleets`` then registers the same trips with as many fresh
databases as there are timed rounds, and each round runs the next one.

Nothing reads a fleet's index while it runs, so a ``TimeSpaceIndex()``
builds no tree here: the timed run pays for the o-planes and their slab
boxes, not for R-tree inserts and deletes (the tree would be STR-loaded
by the first query).
"""

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.index.timespace import TimeSpaceIndex
from repro.sim.fleet import FleetSimulation
from repro.workloads.scenarios import taxi_fleet_scenario

DT = 1.0 / 30.0


def unrun_fleets(count, num_vehicles=200, duration=10.0):
    """``count`` identical fleets over one set of trips, none of them run."""
    template = taxi_fleet_scenario(num_taxis=num_vehicles, duration=duration,
                                   seed=17, dt=DT)
    fleets = []
    for _ in range(count):
        database = MovingObjectDatabase(index=TimeSpaceIndex())
        database.schema.define_mobile_point_class("taxi")
        fleet = FleetSimulation(database, dt=DT)
        for vehicle in template.fleet.vehicles.values():
            fleet.add_vehicle(vehicle.object_id, "taxi", vehicle.trip,
                              make_policy("ail", 5.0))
        fleets.append(fleet)
    return fleets


def test_bench_fleet_run_200(benchmark):
    """200 ail vehicles, 10 min at dt = 1/30, into a TimeSpaceIndex."""
    fleets = unrun_fleets(4)
    counts = benchmark.pedantic(lambda: fleets.pop().run(), rounds=4)
    assert sum(counts.values()) > 0
