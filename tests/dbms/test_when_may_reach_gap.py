"""A known wrong "no" from ``when_may_reach``, pinned until it is fixed.

``when_may_reach`` scans forward at ``step = 0.5`` minutes and bisects
only between scan points that straddle a transition.  A region the
object enters and leaves between two scan points is never seen, and the
answer is ``None`` — under may semantics a wrong answer, not an
imprecise one.  The case below: an ail object with a tiny update cost
(so a tight uncertainty interval) crossing a region 0.1 mi wide at
1 mi/min is inside it for 0.1 minutes.  A 1 ms grid of the object's
classification is the evidence the answer should have found.
"""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import Containment
from repro.dbms.trajectory import _classify_at, when_may_reach
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.routes.generators import straight_route

UNTIL = 40.0
REGION = Polygon.rectangle(20.2, -0.05, 20.3, 0.05)


@pytest.fixture(scope="module")
def database():
    database = MovingObjectDatabase(horizon=120.0)
    database.schema.define_mobile_point_class("heli")
    database.register_route(straight_route(100.0, "corridor"))
    database.insert_moving_object(
        "h1", "heli", "corridor", 0.0, Point(0.0, 0.0), 0,
        speed=1.0, policy=make_policy("ail", 0.001), max_speed=1.0,
    )
    return database


@pytest.fixture(scope="module")
def may_instants(database):
    """Every instant of a 1 ms grid over ``[0, UNTIL]`` not classified OUT."""
    grid = (k / 1000.0 for k in range(int(UNTIL * 1000) + 1))
    return [t for t in grid
            if _classify_at(database, "h1", REGION, t) != Containment.OUT]


def test_the_object_may_be_in_the_region(may_instants):
    assert len(may_instants) == 101
    assert may_instants[0] == pytest.approx(20.2)
    assert may_instants[-1] == pytest.approx(20.3)


@pytest.mark.xfail(strict=True, reason=(
    "the 0.5-minute forward scan steps over a region crossed in 0.1 "
    "minutes and answers None"))
def test_when_may_reach_finds_the_crossing(database, may_instants):
    reached = when_may_reach(database, "h1", REGION, until=UNTIL)
    assert reached is not None
    assert reached <= may_instants[0] + 1e-3
