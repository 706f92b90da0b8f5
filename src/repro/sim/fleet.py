"""Multi-vehicle simulation feeding the moving-objects DBMS.

Each vehicle decides its updates onboard, from its own deviation alone
(§3.1–3.3), so a fleet is a batch of independent lanes whose messages
merely have to reach the database in time order.
:meth:`FleetSimulation.run` asks
:func:`~repro.sim.lanes.simulate_lanes` for every vehicle's update
events and replays them tick by tick — each a
:class:`~repro.dbms.update_log.PositionUpdateMessage` with the
vehicle's *actual* position and the declared speed, which the database
installs (re-indexing the object's o-plane).  This is the full paper
pipeline: vehicles → update policies → messages → DBMS → index → queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.policy import UpdatePolicy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import SimulationError
from repro.sim.lanes import simulate_lanes
from repro.obs.probe import probe
from repro.sim.clock import SimulationClock
from repro.sim.metrics import TripMetrics
from repro.sim.trip import Trip
from repro.sim.vehicle import UpdateEvent
from repro.units import DEFAULT_TICK_MINUTES


@dataclass
class FleetVehicle:
    """One vehicle in the fleet: a trip, a policy, its message count."""

    object_id: str
    trip: Trip
    policy: UpdatePolicy
    #: Update messages the database received from this vehicle.
    messages_sent: int = 0


class FleetSimulation:
    """Drives a set of vehicles against one database.

    Vehicles must be added before :meth:`run`.  All trips start at
    simulation time 0; a vehicle whose trip is shorter than the run goes
    quiet after its trip ends (no further updates — the DBMS keeps
    dead-reckoning from its last report, as it would in reality).
    """

    def __init__(self, database: MovingObjectDatabase,
                 dt: float = DEFAULT_TICK_MINUTES) -> None:
        self.database = database
        self.dt = dt
        self.vehicles: dict[str, FleetVehicle] = {}
        self._ran = False

    def add_vehicle(self, object_id: str, class_name: str, trip: Trip,
                    policy: UpdatePolicy,
                    attributes: dict[str, Any] | None = None) -> FleetVehicle:
        """Register a vehicle and write its trip-start position attribute."""
        if object_id in self.vehicles:
            raise SimulationError(f"duplicate vehicle id {object_id!r}")
        if not trip.fits_route():
            raise SimulationError(
                f"trip for {object_id!r} does not fit its route "
                f"({trip.start_travel + trip.total_distance:.2f} mi needed, "
                f"{trip.route.length:.2f} mi available)"
            )
        if trip.route.route_id not in self.database.routes:
            self.database.register_route(trip.route)
        start_position = trip.position(0.0)
        self.database.insert_moving_object(
            object_id=object_id,
            class_name=class_name,
            route_id=trip.route.route_id,
            t=0.0,
            position=start_position,
            direction=trip.direction,
            speed=trip.speed(0.0),
            policy=policy,
            max_speed=trip.max_speed,
            attributes=attributes,
        )
        vehicle = FleetVehicle(object_id=object_id, trip=trip, policy=policy)
        self.vehicles[object_id] = vehicle
        return vehicle

    def run(self, duration: float | None = None,
            on_tick: Callable[[float], None] | None = None) -> dict[str, int]:
        """Simulate the fleet once; returns per-vehicle message counts.

        ``duration`` defaults to the longest trip; a shorter one drops
        the messages past it.  ``on_tick(t)`` is invoked after each tick
        has been fully processed — the hook the query workloads use to
        issue range queries against a live database: every message up
        to ``t`` is installed, none after.
        """
        if not self.vehicles:
            raise SimulationError("fleet has no vehicles")
        if self._ran:
            raise SimulationError("fleet has already run")
        if duration is None:
            duration = max(v.trip.duration for v in self.vehicles.values())
        clock = SimulationClock(duration, self.dt)
        end = clock.time_at(clock.num_ticks)
        self._ran = True
        # A trip that ends before the first tick never decides anything.
        vehicles = [v for v in self.vehicles.values()
                    if v.trip.duration >= self.dt]

        # Observability hooks (skipped under the default probe):
        # per-vehicle message counters, per-policy deviation, and
        # aggregate bandwidth.
        p = probe()
        observed = p.enabled
        if observed:
            p.gauge("fleet_vehicles", len(self.vehicles))
            message_counter = p.instrument("fleet_messages_total")
            vehicle_counters = {
                object_id: p.instrument("fleet_vehicle_messages_total",
                                        vehicle=object_id)
                for object_id in self.vehicles
            }

        with p.span("fleet_run", vehicles=len(self.vehicles),
                  duration=duration, dt=self.dt):
            lanes = [(v.trip, v.policy) for v in vehicles]
            results = simulate_lanes(lanes, self.dt)
            # Each tick's events, in vehicle insertion order (the order
            # the lanes are visited in).  Tick ``i`` is the float
            # ``i * dt`` on every lane's grid and on the clock.
            due: dict[float, list[tuple[FleetVehicle, UpdateEvent]]] = {}
            for vehicle, result in zip(vehicles, results):
                for event in result.updates:
                    if event.time > end:
                        break
                    due.setdefault(event.time, []).append((vehicle, event))
            # Without a hook only the ticks that carry a message matter.
            ticks = (sorted(due) if on_tick is None
                     else (t for _, t in clock.ticks()))
            for t in ticks:
                for vehicle, event in due.get(t, ()):
                    position = vehicle.trip.position(t)
                    self.database.process_update(
                        PositionUpdateMessage(
                            object_id=vehicle.object_id,
                            time=t,
                            x=position.x,
                            y=position.y,
                            speed=event.declared_speed,
                        )
                    )
                    vehicle.messages_sent += 1
                    if observed:
                        message_counter.inc()
                        vehicle_counters[vehicle.object_id].inc()
                if on_tick is not None:
                    on_tick(t)

        counts = {
            object_id: vehicle.messages_sent
            for object_id, vehicle in self.vehicles.items()
        }
        if observed:
            by_policy: dict[str, list[TripMetrics]] = {}
            for vehicle, result in zip(vehicles, results):
                by_policy.setdefault(vehicle.policy.name, []).append(
                    result.metrics)
            for name, runs in by_policy.items():
                p.gauge("fleet_avg_deviation_miles",
                        sum(m.deviation_integral for m in runs)
                        / sum(m.duration for m in runs), policy=name)
            p.gauge("fleet_messages_per_minute",
                    sum(counts.values()) / duration)
        return counts

    def actual_position(self, object_id: str, t: float):
        """Ground-truth position of a vehicle (for answer validation)."""
        try:
            vehicle = self.vehicles[object_id]
        except KeyError:
            raise SimulationError(f"unknown vehicle {object_id!r}") from None
        return vehicle.trip.position(min(t, vehicle.trip.duration))

__all__ = [
    "FleetSimulation",
    "FleetVehicle",
]
