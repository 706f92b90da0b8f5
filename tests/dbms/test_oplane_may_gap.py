"""A known dropped "may" from the o-plane index, pinned until it is fixed.

``OPlane`` samples an object's interval ends ``l(t)``/``u(t)`` a few
times per slab and pads the samples by the *declared* speed.  Prop 4's
fast bound ``min(2C/t, (V - v) t)`` peaks at ``t* = sqrt(2C / (V - v))``;
for an ail object with ``C = 0.18``, declared speed 0 and ``V = 1``,
``t* = 0.6``, the padding is 0, and the peak escapes every box.  At
``t = 0.6`` the object may have driven from ``x = 1`` to ``x = 1.6``
without sending an update (``0.55 < 2C / 0.55``), so it may be in the
strip ``1.45 <= x <= 1.55``: the scan says so, the indexed database
does not offer it as a candidate.
"""

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.index.timespace import TimeSpaceIndex
from repro.routes.route import Route

STRIP = Polygon.rectangle(1.45, -0.1, 1.55, 0.1)
T = 0.6


def database(index):
    database = MovingObjectDatabase(index=index)
    database.schema.define_mobile_point_class("car")
    database.register_route(
        Route("line", Polyline.from_coordinates([(0.0, 0.0), (10.0, 0.0)])))
    database.insert_moving_object(
        "o", "car", "line", 0.0, Point(1.0, 0.0), 0, speed=0.0,
        policy=make_policy("ail", 0.18), max_speed=1.0,
    )
    return database


def test_the_scan_says_the_object_may_be_in_the_strip():
    answer = database(None).range_query(STRIP, T)
    assert answer.may == {"o"}
    assert answer.must == frozenset()


@pytest.mark.xfail(strict=True, reason=(
    "OPlane samples l(t)/u(t) with a declared-speed margin of 0, so the "
    "fast bound's peak at t* = 0.6 escapes every box (ROADMAP item 1)"))
def test_the_indexed_answer_equals_the_scan():
    indexed = database(TimeSpaceIndex()).range_query(STRIP, T)
    scanned = database(None).range_query(STRIP, T)
    assert (indexed.may, indexed.must) == (scanned.may, scanned.must)
