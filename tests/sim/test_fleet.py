"""Unit tests for repro.sim.fleet."""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.errors import SimulationError
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route
from repro.sim.fleet import FleetSimulation
from repro.sim.speed_curves import ConstantCurve, PiecewiseConstantCurve
from repro.sim.trip import Trip

C = 5.0


def build_fleet(index=None):
    database = MovingObjectDatabase(index=index)
    database.schema.define_mobile_point_class("vehicle")
    return database, FleetSimulation(database, dt=1.0 / 30.0)


class TestAddVehicle:
    def test_registers_object_and_route(self):
        database, fleet = build_fleet()
        trip = Trip(straight_route(15.0, "h1"), ConstantCurve(10.0, 1.0))
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("ail", C))
        assert "h1" in database.routes
        assert len(database) == 1
        record = database.record("v1")
        assert record.attribute.speed == 1.0
        assert record.max_speed == trip.max_speed

    def test_duplicate_rejected(self):
        _, fleet = build_fleet()
        trip = Trip(straight_route(15.0, "h1"), ConstantCurve(10.0, 1.0))
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("ail", C))
        trip2 = Trip(straight_route(15.0, "h2"), ConstantCurve(10.0, 1.0))
        with pytest.raises(SimulationError):
            fleet.add_vehicle("v1", "vehicle", trip2, make_policy("ail", C))

    def test_trip_must_fit_route(self):
        _, fleet = build_fleet()
        trip = Trip(straight_route(2.0, "short"), ConstantCurve(10.0, 1.0))
        with pytest.raises(SimulationError):
            fleet.add_vehicle("v1", "vehicle", trip, make_policy("ail", C))


class TestRun:
    def test_empty_fleet_rejected(self):
        _, fleet = build_fleet()
        with pytest.raises(SimulationError):
            fleet.run()

    def test_messages_reach_database(self):
        database, fleet = build_fleet()
        curve = PiecewiseConstantCurve([(3.0, 1.0), (3.0, 0.0)] * 2)
        trip = Trip(straight_route(10.0, "h1"), curve)
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("cil", C))
        counts = fleet.run()
        assert counts["v1"] > 0
        assert database.update_log.count_for("v1") == counts["v1"]

    def test_database_position_accurate_after_run(self):
        database, fleet = build_fleet()
        curve = PiecewiseConstantCurve([(3.0, 1.0), (3.0, 0.0)] * 2)
        trip = Trip(straight_route(10.0, "h1"), curve)
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("cil", C))
        fleet.run()
        t = trip.duration
        answer = database.position_of("v1", t)
        actual = fleet.actual_position("v1", t)
        assert answer.position.distance_to(actual) <= (
            answer.error_bound + trip.max_speed / 30.0 + 1e-6
        )

    def test_on_tick_hook(self):
        _, fleet = build_fleet()
        trip = Trip(straight_route(5.0, "h1"), ConstantCurve(2.0, 1.0))
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("ail", C))
        seen = []
        fleet.run(on_tick=seen.append)
        assert len(seen) == 60  # 2 minutes at dt = 1/30
        assert seen[-1] == pytest.approx(2.0)

    def test_vehicle_goes_quiet_after_trip_end(self):
        database, fleet = build_fleet()
        short = Trip(straight_route(5.0, "h1"),
                     PiecewiseConstantCurve([(1.0, 1.0), (1.0, 0.0)]))
        long = Trip(straight_route(15.0, "h2"), ConstantCurve(6.0, 1.0))
        fleet.add_vehicle("short", "vehicle", short, make_policy("cil", 0.5))
        fleet.add_vehicle("long", "vehicle", long, make_policy("cil", 0.5))
        fleet.run()
        last_short = [
            m.time for m in database.update_log.messages_for("short")
        ]
        assert all(t <= short.duration + 1e-9 for t in last_short)

    def test_finished_vehicles_dropped_from_tick_loop(self):
        """No message of a vehicle is later than its trip's end, whatever
        the other vehicles and the run length are."""
        database, fleet = build_fleet()
        durations = {"a": 1.0, "b": 2.5, "c": 0.95, "d": 4.0}
        for i, (object_id, minutes) in enumerate(durations.items()):
            trip = Trip(straight_route(10.0, f"h{i}"),
                        PiecewiseConstantCurve([(minutes / 2, 1.2),
                                                (minutes / 2, 0.2)]))
            fleet.add_vehicle(object_id, "vehicle", trip,
                              make_policy(("cil", "dl")[i % 2], 0.05))
        counts = fleet.run(duration=6.0)
        for object_id, minutes in durations.items():
            times = [m.time for m in database.update_log.messages_for(object_id)]
            assert len(times) == counts[object_id] > 0
            assert all(t <= minutes + 1e-9 for t in times)

    def test_second_run_rejected(self):
        database, fleet = build_fleet()
        trip = Trip(straight_route(5.0, "h1"), ConstantCurve(2.0, 1.0))
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("ail", C))
        assert fleet.run() == {"v1": 0}  # silent vehicle: nothing to collide
        with pytest.raises(SimulationError, match="fleet has already run"):
            fleet.run()
        assert len(database.update_log) == 0

    def test_run_shorter_than_trips_truncates(self):
        def build():
            database, fleet = build_fleet()
            curve = PiecewiseConstantCurve([(1.0, 1.0), (1.0, 0.0)] * 3)
            trip = Trip(straight_route(10.0, "h1"), curve)
            vehicle = fleet.add_vehicle("v1", "vehicle", trip,
                                        make_policy("cil", 0.5))
            return database, fleet, vehicle

        database, fleet, _ = build()
        fleet.run()
        full = [repr(m) for m in database.update_log.messages_for("v1")]
        database, fleet, vehicle = build()
        seen = []
        counts = fleet.run(duration=2.5, on_tick=seen.append)
        cut = [repr(m) for m in database.update_log.messages_for("v1")]
        kept = [m for m in full if m in cut]
        assert 0 < len(cut) < len(full) and cut == kept == full[:len(cut)]
        assert counts == {"v1": len(cut)} and vehicle.messages_sent == len(cut)
        assert all(m.time <= 2.5 for m in database.update_log.messages_for("v1"))
        assert len(seen) == 75 and seen[-1] == 75 * fleet.dt

    def test_trip_shorter_than_a_tick_stays_silent(self):
        database, fleet = build_fleet()
        blink = Trip(straight_route(5.0, "h1"), ConstantCurve(0.01, 1.0))
        curve = PiecewiseConstantCurve([(1.0, 1.0), (1.0, 0.0)])
        fleet.add_vehicle("blink", "vehicle", blink, make_policy("ail", C))
        fleet.add_vehicle("v1", "vehicle", Trip(straight_route(5.0, "h2"), curve),
                          make_policy("cil", 0.5))
        counts = fleet.run()
        assert counts["blink"] == 0 and counts["v1"] > 0

    def test_mixed_durations_same_counts_as_uniform_loop(self):
        """Dropping finished vehicles must not change message counts."""
        database, fleet = build_fleet()
        for i, minutes in enumerate((1.0, 2.5, 4.0)):
            trip = Trip(straight_route(10.0, f"h{i}"),
                        PiecewiseConstantCurve([(minutes / 2, 1.2),
                                                (minutes / 2, 0.2)]))
            fleet.add_vehicle(f"v{i}", "vehicle", trip,
                              make_policy("cil", 0.5))
        counts = fleet.run()
        # Reference: the same vehicles one at a time through the
        # reference tick loop have the same per-vehicle counts.
        from repro.sim.grid import TickGrid
        from tests.oracle.policy_reference import reference_run
        for i, minutes in enumerate((1.0, 2.5, 4.0)):
            trip = Trip(straight_route(10.0, f"r{i}"),
                        PiecewiseConstantCurve([(minutes / 2, 1.2),
                                                (minutes / 2, 0.2)]))
            solo = reference_run(TickGrid.build(trip, fleet.dt),
                                 make_policy("cil", 0.5))
            assert counts[f"v{i}"] == solo.metrics.num_updates

    def test_index_kept_in_sync(self):
        index = TimeSpaceIndex()
        database, fleet = build_fleet(index=index)
        curve = PiecewiseConstantCurve([(3.0, 1.0), (3.0, 0.0)])
        trip = Trip(straight_route(10.0, "h1"), curve)
        fleet.add_vehicle("v1", "vehicle", trip, make_policy("cil", C))
        fleet.run()
        assert "v1" in index
        index.tree.check_invariants()

    def test_actual_position_unknown_vehicle(self):
        _, fleet = build_fleet()
        with pytest.raises(SimulationError):
            fleet.actual_position("ghost", 1.0)
