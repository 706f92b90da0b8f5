"""E20: shard fan-out on a skewed corridor, as a sharded database counts it.

The scale-out question the paper's DBMS framing raises but does not
answer: how should the plane be cut into shards when the workload is
spatially skewed?  A "highway corridor" — cars on four horizontal
lanes, within-distance queries clustered on the band — is laid out
under every candidate plan.  A sharded database keeps one index and
gives each object an owner shard (the shard of its insert point); a
query's fan-out is the number of distinct owners among its candidates:
the shards owning an object whose slab box (§4.2) meets the window at
the query's time, which a per-shard search would have to ask.
"""

from __future__ import annotations

import math
import random

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import RangeAnswer
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import ExperimentError
from repro.experiments.tables import TableResult
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane
from repro.index.timespace import TimeSpaceIndex
from repro.routes.route import Route
from repro.shard import (
    BinarySplitPartitioning,
    Partitioning,
    UniformGridPartitioning,
    grid_shapes,
    uniform_grid_for,
)

#: Corridor lane y-coordinates: a band straddling the extent's middle,
#: so any horizontal cut through the centre slices every lane.
_LANES = (3.7, 3.9, 4.1, 4.3)

#: Corridor extent (miles); routes span the full x-range.
_EXTENT = 8.0

#: The corridor's bounding rectangle: every route and position in it.
_BOUNDS = Rect2D(0.0, _LANES[0], _EXTENT, _LANES[-1])

#: Radius (miles) of every corridor query.
_RADIUS = 0.35


def run_corridor(database: MovingObjectDatabase, num_objects: int = 24,
                 num_updates: int = 12, num_queries: int = 160,
                 seed: int = 67) -> tuple[dict[str, OPlane], list[RangeAnswer]]:
    """Drive the skewed corridor workload through ``database``.

    Cars cruise the corridor lanes — spread along the full length,
    drifting with small per-minute displacements along their own lane
    — sending periodic position updates; the query load is small
    within-distance queries centred on the corridor, interleaved with
    the update ticks.  Returns every car's o-plane as inserted and
    every query's answer, in order.
    """
    rng = random.Random(seed)
    database.schema.define_mobile_point_class("car", ())
    for lane, y in enumerate(_LANES):
        database.register_route(Route(
            f"lane-{lane}",
            Polyline([Point(0.0, y), Point(_EXTENT, y)]),
        ))
    policy = make_policy("dl", 5.0)
    xs: list[float] = []
    for i in range(num_objects):
        lane = i % len(_LANES)
        x = rng.uniform(0.3, _EXTENT - 0.3)
        xs.append(x)
        database.insert_moving_object(
            f"car-{i}", "car", f"lane-{lane}", 0.0,
            Point(x, _LANES[lane]), 1, rng.uniform(0.3, 0.5),
            policy, max_speed=0.8,
        )
    planes = {f"car-{i}": database.oplane_of(f"car-{i}")
              for i in range(num_objects)}
    answers: list[RangeAnswer] = []

    def next_query(at: float) -> None:
        center = Point(rng.uniform(2.6, 5.4), rng.uniform(3.8, 4.2))
        answers.append(database.within_distance(center, _RADIUS, at))

    per_tick = max(num_queries // num_updates, 1)
    t = 0.0
    for _ in range(num_updates):
        t += 1.0
        for i in range(num_objects):
            lane = i % len(_LANES)
            xs[i] = min(max(xs[i] + rng.uniform(-0.25, 0.3), 0.2),
                        _EXTENT - 0.2)
            database.process_update(PositionUpdateMessage(
                f"car-{i}", t, xs[i], _LANES[lane],
                rng.uniform(0.3, 0.5), route_id=f"lane-{lane}",
                direction=1,
            ))
        for _ in range(min(per_tick, num_queries - len(answers))):
            next_query(t + 0.5)
    while len(answers) < num_queries:
        next_query(t + 0.5)
    return planes, answers


def candidate_plans(planes: dict[str, OPlane],
                    num_shards: int) -> list[tuple[str, Partitioning]]:
    """E20's candidates over the corridor, in a fixed order.

    Every uniform grid shape of ``num_shards``, then the recursive
    binary split weighted by the insert points and its load-agnostic
    midpoint variant.
    """
    plans: list[tuple[str, Partitioning]] = [
        (f"uniform-{nx}x{ny}", UniformGridPartitioning(_BOUNDS, nx, ny))
        for nx, ny in grid_shapes(num_shards)
    ]
    points = [(plane.attribute.start_x, plane.attribute.start_y)
              for plane in planes.values()]
    plans.append(("binary-split", BinarySplitPartitioning.build(
        _BOUNDS, points, num_shards)))
    plans.append(("binary-split-midpoint",
                  BinarySplitPartitioning.build_midpoint(
                      _BOUNDS, num_shards)))
    return plans


def owned_fanouts(plan: Partitioning, planes: dict[str, OPlane],
                  answers: list[RangeAnswer]) -> tuple[list[int], list[int]]:
    """Objects per shard under ``plan``, and each answer's fan-out.

    A window's fan-out is the number of distinct owners among its
    candidates, and an object's owner is the shard of its insert point.
    So one run over a single index stands for a sharded run under
    every plan.
    """
    owner = {
        object_id: plan.shard_of_point(plane.attribute.start_x,
                                       plane.attribute.start_y)
        for object_id, plane in planes.items()
    }
    sizes = [0] * plan.num_shards
    for shard in owner.values():
        sizes[shard] += 1
    return sizes, [len({owner[object_id] for object_id in answer.candidates})
                   for answer in answers]


def table_sharding(num_shards: int = 4, num_objects: int = 24,
                   num_updates: int = 12, num_queries: int = 160,
                   seed: int = 67) -> TableResult:
    """Measured query fan-out of each candidate plan on the corridor."""
    if num_queries < 1:
        raise ExperimentError(f"num_queries must be positive, got {num_queries}")
    # Each query comes 0.5 min after an update, so one slab holds every
    # box a query reads: a 5-minute horizon finds the candidates the
    # default 120-minute one does, from one slab box per o-plane.
    planes, answers = run_corridor(
        MovingObjectDatabase(index=TimeSpaceIndex(), horizon=5.0),
        num_objects=num_objects, num_updates=num_updates,
        num_queries=num_queries, seed=seed,
    )
    default = uniform_grid_for(_BOUNDS, num_shards)
    default_label = f"uniform-{default.nx}x{default.ny}"
    rows: list[list[object]] = []
    for label, plan in candidate_plans(planes, num_shards):
        sizes, fanouts = owned_fanouts(plan, planes, answers)
        ordered = sorted(fanouts)
        rows.append([
            label + (" (default)" if label == default_label else ""),
            "/".join(map(str, sizes)),
            sum(fanouts) / len(fanouts),
            ordered[math.ceil(0.95 * len(ordered)) - 1],
            fanouts.count(1) / len(fanouts),
        ])
    # Stable sort: candidate order breaks ties.
    rows.sort(key=lambda row: row[2])
    return TableResult(
        experiment_id="E20",
        title=(
            f"Query fan-out through the partitioned index on the "
            f"corridor ({num_objects} objects, {num_queries} queries, "
            f"{num_shards} shards; lowest mean first)"
        ),
        headers=["plan", "objects per shard", "mean fan-out",
                 "p95 fan-out", "single-shard share"],
        rows=rows,
    )


__all__ = [
    "candidate_plans",
    "owned_fanouts",
    "run_corridor",
    "table_sharding",
]
