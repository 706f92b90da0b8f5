"""A fleet run as the tick-by-tick loop it used to be.

This is the body ``FleetSimulation.run`` had before it became a replay
of engine events: one :class:`~repro.sim.vehicle.OnboardComputer` per
vehicle stepped on the real :class:`~repro.sim.trip.Trip` — observe,
decide, apply, transmit — every vehicle at every tick, in insertion
order, with the hook called after each tick.  No tick grids, no
dispatcher, no kernel, no telemetry.  It is the independent side of
``test_fleet_differential.py`` and must never be edited to follow
``repro.sim.fleet``.
"""

from __future__ import annotations

from repro.dbms.update_log import PositionUpdateMessage
from repro.sim.clock import SimulationClock
from repro.sim.vehicle import OnboardComputer


def run(fleet, duration=None, on_tick=None):
    """Drive ``fleet``'s vehicles against its database; per-vehicle counts.

    ``fleet`` is a :class:`~repro.sim.fleet.FleetSimulation` whose
    vehicles were added (and so inserted into the database) but which
    has not run; only its ``vehicles``, ``database`` and ``dt`` are read.
    """
    vehicles = list(fleet.vehicles.values())
    if duration is None:
        duration = max(v.trip.duration for v in vehicles)
    computers = {v.object_id: OnboardComputer(v.trip, v.policy)
                 for v in vehicles}
    for _, t in SimulationClock(duration, fleet.dt).ticks():
        for vehicle in vehicles:
            if t > vehicle.trip.duration + 1e-9:
                continue  # trip over: the vehicle stays quiet
            computer = computers[vehicle.object_id]
            state = computer.observe(t)
            decision = vehicle.policy.decide(state)
            if not decision.send:
                continue
            computer.apply_update(t, decision, state.deviation)
            position = vehicle.trip.position(t)
            fleet.database.process_update(
                PositionUpdateMessage(
                    object_id=vehicle.object_id,
                    time=t,
                    x=position.x,
                    y=position.y,
                    speed=decision.speed_to_declare,
                )
            )
        if on_tick is not None:
            on_tick(t)
    return {object_id: computer.num_updates
            for object_id, computer in computers.items()}
