"""The multi-leg driver's one onboard computer.

Policy-triggered updates and forced route-change updates go through the
same :class:`~repro.sim.vehicle.OnboardComputer`, so its event list, the
database's message log and the driver's two counters tell one story.
The journey below has both kinds inside one leg; the times and speeds
are those the driver's own hand-built state produced before PR 21.
"""

import math

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route
from repro.sim.multileg import Leg, MultiLegDriver, MultiLegTrip
from repro.sim.speed_curves import PiecewiseConstantCurve

DT = 1.0 / 30.0
BOUNDARY = 10.433333333333334  # first tick past 8 miles

#: policy, C -> (time, declared speed) of every message, route change included
MESSAGES = {
    ("cil", 2.0): [(4.2, 0.2), (7.533333333333333, 1.0), (BOUNDARY, 1.0),
                   (13.466666666666667, 0.1)],
    ("dl", 0.5): [(3.2333333333333334, 0.2), (6.233333333333333, 1.0),
                  (BOUNDARY, 1.0), (12.333333333333334, 0.1)],
    ("ail", 1.0): [(3.6999999999999997, 0.848648648648648),
                   (5.466666666666667, 0.20000000000000456),
                   (7.366666666666666, 0.7754385964912273),
                   (10.366666666666667, 0.9999999999999961),
                   (BOUNDARY, 1.0), (12.933333333333334, 0.664000000000037)],
}


def journey():
    legs = [Leg(straight_route(8.0, "leg-a")),
            Leg(straight_route(8.0, "leg-b", origin=(8.0, 0.0),
                               heading_degrees=90.0))]
    curve = PiecewiseConstantCurve(
        [(3.0, 1.0), (3.0, 0.2), (6.0, 1.0), (2.0, 0.1)])
    return MultiLegTrip(legs, curve)


@pytest.mark.parametrize("name,cost", sorted(MESSAGES))
def test_forced_and_policy_updates_share_the_computer(name, cost):
    database = MovingObjectDatabase(index=TimeSpaceIndex(), horizon=40.0)
    database.schema.define_mobile_point_class("courier")
    trip = journey()
    driver = MultiLegDriver("c1", "courier", trip, make_policy(name, cost),
                            database, dt=DT)
    total = driver.run()

    assert [tr.time for tr in driver.transitions] == [BOUNDARY]
    # Both kinds fall in leg-a: policy updates precede the boundary.
    assert driver.policy_updates >= 2
    assert total == database.message_count("c1") \
        == driver.policy_updates + len(driver.transitions)

    log = database.update_log.messages_for("c1")
    assert [(m.time, m.speed) for m in log] == MESSAGES[name, cost]
    assert [m.route_id for m in log] == [
        "leg-b" if m.time == BOUNDARY else None for m in log]

    events = driver.computer.events
    assert [(e.time, e.declared_speed) for e in events] \
        == [(m.time, m.speed) for m in log]
    assert all(e.travel == trip.distance_travelled(e.time) for e in events)
    forced = [e for e in events if e.time == BOUNDARY]
    assert [(e.deviation_at_update, e.threshold) for e in forced] \
        == [(math.inf, 0.0)]  # the infinite-route-distance rule
    assert all(math.isfinite(e.deviation_at_update) and e.threshold > 0.0
               for e in events if e.time != BOUNDARY)
