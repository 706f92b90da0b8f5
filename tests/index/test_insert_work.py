"""The work one insert does, counted on a ``serve_mixed``-shaped fleet.

Fifty taxis on a 20 x 20 grid (seed 3), each inserted at time 0 with an
ail policy (C = 5) into a database over a 5-minute-slab
``TimeSpaceIndex`` with a 120-minute horizon: 24 slabs per plane.  The
inserts construct one ``Box3D`` per stored run and none per slab, and
ask ``Route.interval_rect`` once per travel span of the reference slab
decomposition (``tests/index/test_oplane_bounds.py``), consecutive
repeats counted once; each insert projects its start point onto the
route once, to check it and to keep it.  Counts, unlike seconds, do not
drift.
"""

from __future__ import annotations

import itertools
import random
import struct

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.geometry.bbox import Box3D
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.routes.route import Route
from tests.index.test_oplane_bounds import reference_travel_range

TAXIS = 50
#: Runs stored for the fleet below.
RUNS = 181


def serve_fleet() -> MovingObjectDatabase:
    rng = random.Random(3)
    network = grid_city_network(20, 20, 0.25)
    database = MovingObjectDatabase(index=TimeSpaceIndex(slab_minutes=5.0),
                                    horizon=120.0)
    database.schema.define_mobile_point_class("taxi")
    for i in range(TAXIS):
        route = network.random_route(rng, min_length=1.0)
        database.register_route(route)
        direction = rng.randrange(2)
        speed = rng.uniform(0.2, 0.6)
        database.insert_moving_object(
            f"taxi-{i:04d}", "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction, speed,
            make_policy("ail", 5.0), max_speed=speed * 1.6)
    return database


def reference_spans(plane: OPlane) -> list[bytes]:
    """Each slab's travel span, packed, from the per-sample reference."""
    spans = []
    elapsed = 0.0
    while elapsed < plane.horizon - 1e-12:
        slab_end = min(elapsed + 5.0, plane.horizon)
        spans.append(struct.pack("2d", *reference_travel_range(
            plane, plane._start_travel(), elapsed, slab_end)))
        elapsed = slab_end
    return spans


def test_inserts_build_one_box_per_run_and_one_rectangle_per_span(
        monkeypatch):
    counts = {"boxes": 0, "rects": 0, "projections": 0}
    post_init = Box3D.__post_init__
    interval_rect = Route.interval_rect
    project = Polyline.project

    def counted_box(self):
        counts["boxes"] += 1
        post_init(self)

    def counted_rect(self, *args, **kwargs):
        counts["rects"] += 1
        return interval_rect(self, *args, **kwargs)

    def counted_project(self, point):
        counts["projections"] += 1
        return project(self, point)

    monkeypatch.setattr(Box3D, "__post_init__", counted_box)
    monkeypatch.setattr(Route, "interval_rect", counted_rect)
    monkeypatch.setattr(Polyline, "project", counted_project)
    database = serve_fleet()
    monkeypatch.undo()

    index = database._index
    assert index.total_boxes() == RUNS
    assert counts["boxes"] == RUNS < TAXIS * 24
    assert counts["projections"] == TAXIS
    spans = [reference_spans(database.oplane_of(object_id))
             for object_id in database.object_ids()]
    assert all(len(slabs) == 24 for slabs in spans)
    changes = sum(len(list(itertools.groupby(slabs))) for slabs in spans)
    assert counts["rects"] == changes
    assert changes == sum(len(set(slabs)) for slabs in spans)
