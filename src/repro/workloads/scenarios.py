"""Fleet scenarios: networks + trips + policies, ready to simulate.

Each scenario builder returns a :class:`FleetScenario` bundling a
database (with schema and optional index), a fleet simulation with
vehicles added, and the network it runs on.  Scenarios differ in
network shape, speed-curve regimes, and fleet size — mirroring the
paper's three motivating applications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef
from repro.errors import SimulationError
from repro.index.timespace import TimeSpaceIndex
from repro.routes.network import RouteNetwork
from repro.routes.generators import (
    grid_city_network,
    radial_highway_network,
    random_network,
)
from repro.sim.fleet import FleetSimulation
from repro.sim.speed_curves import (
    CityCurve,
    HighwayCurve,
    RushHourCurve,
    SpeedCurve,
    TrafficJamCurve,
)
from repro.sim.trip import Trip
from repro.units import DEFAULT_TICK_MINUTES


#: Builds the scenario's database from its network.  Lets callers hand
#: the database a partitioning of the network's extent (a sharded
#: database) without the scenario layer importing the shard package.
DatabaseFactory = Callable[[RouteNetwork], Any]


@dataclass
class FleetScenario:
    """A fully wired scenario ready to ``fleet.run()``."""

    name: str
    network: RouteNetwork
    database: Any
    fleet: FleetSimulation


def _build_trip(network: RouteNetwork, curve: SpeedCurve,
                rng: random.Random) -> Trip:
    """A trip over a network route long enough for the curve's distance."""
    # The trip must fit the route: request the curve's integrated
    # distance plus headroom for integration differences.
    needed = curve.mean_speed() * curve.duration * 1.02 + 0.1
    route = network.random_route(rng, min_length=needed, max_attempts=256)
    return Trip(route, curve)


def _scenario(name: str, network: RouteNetwork, curves: list[SpeedCurve],
              rng: random.Random, class_name: str,
              policy_name: str, update_cost: float,
              attributes: tuple[AttributeDef, ...] = (),
              attribute_maker=None,
              dt: float = DEFAULT_TICK_MINUTES,
              database_factory: DatabaseFactory | None = None) -> FleetScenario:
    if database_factory is not None:
        database = database_factory(network)
    else:
        database = MovingObjectDatabase(index=TimeSpaceIndex())
    database.schema.define_mobile_point_class(class_name, attributes)
    fleet = FleetSimulation(database, dt=dt)
    for i, curve in enumerate(curves):
        object_id = f"{class_name}-{i + 1}"
        trip = _build_trip(network, curve, rng)
        policy = make_policy(policy_name, update_cost)
        values = attribute_maker(i, rng) if attribute_maker else None
        fleet.add_vehicle(object_id, class_name, trip, policy, values)
    return FleetScenario(
        name=name, network=network, database=database, fleet=fleet
    )


def taxi_fleet_scenario(num_taxis: int = 20, duration: float = 30.0,
                        seed: int = 7, policy: str = "ail",
                        update_cost: float = 5.0,
                        dt: float = DEFAULT_TICK_MINUTES,
                        database_factory: DatabaseFactory | None = None,
                        ) -> FleetScenario:
    """City cabs on a Manhattan grid, stop-and-go speed curves.

    Cabs carry a ``free`` flag so the introduction's "retrieve the free
    cabs within 1 mile of ..." query can be expressed by filtering the
    range answer on the attribute table.
    """
    if num_taxis < 1:
        raise SimulationError("need at least one taxi")
    rng = random.Random(seed)
    # The curves check ``duration`` before it sizes the grid below;
    # building the grid draws nothing from ``rng``.
    curves: list[SpeedCurve] = [
        CityCurve(duration, rng, cruise=rng.uniform(0.3, 0.6))
        for _ in range(num_taxis)
    ]
    # Size the grid so random shortest paths can host full-length trips
    # (~0.8 mi/min worst-case city cruise for the whole duration).
    blocks = max(24, int(0.8 * duration / 0.25) + 4)
    network = grid_city_network(blocks_x=blocks, blocks_y=blocks,
                                block_miles=0.25)
    return _scenario(
        "taxi-fleet", network, curves, rng,
        class_name="taxi",
        policy_name=policy, update_cost=update_cost,
        attributes=(AttributeDef("free", "bool"),),
        attribute_maker=lambda i, r: {"free": r.random() < 0.5},
        dt=dt, database_factory=database_factory,
    )


def trucking_scenario(num_trucks: int = 15, duration: float = 45.0,
                      seed: int = 11, policy: str = "dl",
                      update_cost: float = 5.0,
                      dt: float = DEFAULT_TICK_MINUTES,
                      database_factory: DatabaseFactory | None = None,
                      ) -> FleetScenario:
    """Long-haul trucks on a radial highway network.

    Mostly steady highway curves with occasional jams — the regime
    where the dl policy's current-speed declaration shines.
    """
    if num_trucks < 1:
        raise SimulationError("need at least one truck")
    rng = random.Random(seed)
    network = radial_highway_network(spokes=8, spoke_miles=40.0)
    curves: list[SpeedCurve] = []
    for i in range(num_trucks):
        if i % 4 == 3:
            curves.append(TrafficJamCurve(duration, rng, cruise=0.9))
        else:
            curves.append(HighwayCurve(duration, rng, cruise=rng.uniform(0.8, 1.0)))
    return _scenario(
        "trucking", network, curves, rng,
        class_name="truck",
        policy_name=policy, update_cost=update_cost,
        attributes=(AttributeDef("carrier", "string"),),
        attribute_maker=lambda i, r: {"carrier": f"carrier-{i % 3}"},
        dt=dt, database_factory=database_factory,
    )


def battlefield_scenario(num_units: int = 25, duration: float = 30.0,
                         seed: int = 23, policy: str = "cil",
                         update_cost: float = 2.0,
                         dt: float = DEFAULT_TICK_MINUTES,
                         database_factory: DatabaseFactory | None = None,
                         ) -> FleetScenario:
    """Ground units on an irregular network, mixed speed regimes.

    Units carry an ``allegiance`` attribute ("retrieve the *friendly*
    helicopters currently in a given region").
    """
    if num_units < 1:
        raise SimulationError("need at least one unit")
    rng = random.Random(seed)
    # Extent scales with duration so the fastest units' trips fit.
    extent = max(25.0, 1.4 * duration)
    network = random_network(
        num_intersections=60, extent_miles=extent, rng=rng, neighbours=3
    )
    curves: list[SpeedCurve] = []
    for i in range(num_units):
        regime = i % 3
        if regime == 0:
            curves.append(HighwayCurve(duration, rng, cruise=rng.uniform(0.5, 1.2)))
        elif regime == 1:
            curves.append(CityCurve(duration, rng, cruise=rng.uniform(0.2, 0.5)))
        else:
            curves.append(RushHourCurve(duration, rng, free_flow=0.7))
    return _scenario(
        "battlefield", network, curves, rng,
        class_name="unit",
        policy_name=policy, update_cost=update_cost,
        attributes=(AttributeDef("allegiance", "string"),),
        attribute_maker=lambda i, r: {
            "allegiance": "friendly" if i % 2 == 0 else "hostile"
        },
        dt=dt, database_factory=database_factory,
    )

__all__ = [
    "DatabaseFactory",
    "FleetScenario",
    "battlefield_scenario",
    "taxi_fleet_scenario",
    "trucking_scenario",
]
