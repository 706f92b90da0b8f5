"""The grid a ``trace replay --shards N`` override lays out, pinned.

Answers are invariant under any partitioning, so no digest notices a
changed override grid: only the physical layout (and the
``trace_replay`` benchmark's timings) would move.  These literals pin
the grid over the trace's extent — every route vertex and every insert,
update and stationary position, grown by 0.5 when degenerate, the unit
square when there is none — read off the ``db_config`` the replayed
database records.
"""

from __future__ import annotations

import random

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.routes.route import Route
from repro.trace.events import DB_CONFIG
from repro.trace.recorder import TraceRecorder, use_recorder
from repro.trace.replay import TraceReplayer


def override_grid(trace_events, shards):
    """The partitioning spec a ``shards`` override replay lays out."""
    with use_recorder(TraceRecorder()) as recorder:
        report = TraceReplayer(shards=shards).replay(trace_events)
    assert report.ok
    configs = [event for event in recorder.events()
               if event.kind == DB_CONFIG]
    assert len(configs) == 1
    return configs[0].data["partitioning"]


def record(build):
    with use_recorder(TraceRecorder()) as recorder:
        build(MovingObjectDatabase(index=TimeSpaceIndex()))
    return recorder.events()


def city_with_depots(database):
    """Taxis on a grid city, one update each, and two depots beyond it."""
    rng = random.Random(5)
    network = grid_city_network(4, 3, 0.5)
    database.schema.define_mobile_point_class("taxi")
    database.schema.define(ObjectClass("depot", SpatialKind.POINT,
                                       Mobility.STATIONARY))
    routes = [network.random_route(rng, min_length=0.5) for _ in range(4)]
    for i, route in enumerate(routes):
        database.register_route(route)
        database.insert_moving_object(
            f"taxi-{i}", "taxi", route.route_id, 0.0,
            route.travel_point(0.0, 1), 1, 0.3, make_policy("ail", 5.0),
            max_speed=0.8,
        )
    for i, route in enumerate(routes):
        position = route.travel_point(0.4, 1)
        database.process_update(PositionUpdateMessage(
            f"taxi-{i}", 2.0, position.x, position.y, 0.3,
        ))
    database.insert_stationary_object("depot-1", "depot", Point(-1.25, 0.5))
    database.insert_stationary_object("depot-2", "depot", Point(1.0, 2.75))


def one_straight_route(database):
    """One car on one horizontal route: a collinear extent."""
    database.schema.define_mobile_point_class("car")
    database.register_route(Route(
        "lane", Polyline([Point(0.5, 2.0), Point(6.5, 2.0)])))
    database.insert_moving_object(
        "car", "car", "lane", 0.0, Point(1.0, 2.0), 1, 0.4,
        make_policy("dl", 5.0), max_speed=0.8,
    )
    database.process_update(PositionUpdateMessage("car", 1.0, 1.5, 2.0, 0.4))


def no_positions(database):
    database.schema.define_mobile_point_class("car")


@pytest.mark.parametrize("build, shards, expected", [
    (city_with_depots, 4, {"kind": "uniform", "nx": 2, "ny": 2,
                           "bounds": [-1.25, 0.0, 2.0, 2.75]}),
    (city_with_depots, 3, {"kind": "uniform", "nx": 3, "ny": 1,
                           "bounds": [-1.25, 0.0, 2.0, 2.75]}),
    (one_straight_route, 2, {"kind": "uniform", "nx": 2, "ny": 1,
                             "bounds": [0.0, 1.5, 7.0, 2.5]}),
    (no_positions, 4, {"kind": "uniform", "nx": 2, "ny": 2,
                       "bounds": [0.0, 0.0, 1.0, 1.0]}),
], ids=["stationary-4", "stationary-3", "collinear-2", "empty-4"])
def test_override_grid_is_pinned(build, shards, expected):
    assert override_grid(record(build), shards) == expected
