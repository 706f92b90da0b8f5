"""E20: cost-model-driven shard-plan search on a skewed trace.

The scale-out question the paper's DBMS framing raises but does not
answer: how should the plane be cut into shards when the workload is
spatially skewed?  We record a "highway corridor" trace — objects and
queries concentrated in a narrow horizontal band — through the real
database under the flight recorder, distill it into a
:class:`~repro.shard.cost.TraceWorkload`, and let
:class:`~repro.shard.search.PartitionSearcher` rank candidate
partitionings by the cost model::

    alpha * update_fanout + beta * cross_shard_query_fanin
        + gamma * temporal_skew

The table contrasts every candidate against the default squarest
uniform grid: on this trace the default grid's horizontal cut slices
the corridor, so most queries fan to several shards, while the
searched plan cuts only across the corridor and keeps the p95 fan-out
down.  Measured fan-outs come from
:func:`~repro.shard.cost.measured_fanouts` (the partitioning actually
applied to every recorded query window), not from the model.
"""

from __future__ import annotations

import random

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.experiments.tables import TableResult
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.routes.route import Route
from repro.shard import (
    PartitionSearcher,
    ShardCostModel,
    measured_fanouts,
    percentile,
    uniform_grid_for,
    workload_from_events,
)
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder, use_recorder

#: Corridor lane y-coordinates: a band straddling the extent's middle,
#: so any horizontal cut through the centre slices every lane.
_LANES = (3.7, 3.9, 4.1, 4.3)

#: Corridor extent (miles); routes span the full x-range.
_EXTENT = 8.0


def record_corridor_trace(num_objects: int = 24, num_updates: int = 12,
                          num_queries: int = 160,
                          seed: int = 67) -> tuple[TraceEvent, ...]:
    """Record the skewed corridor workload through a real database.

    Objects cruise the corridor lanes — spread along the full length,
    drifting with small per-minute displacements — sending periodic
    position updates; the query load is small within-distance windows
    centred on the corridor.  Everything is captured by the flight
    recorder, so the returned events are the workload
    :func:`~repro.shard.cost.workload_from_events` reads.  It reads no
    answer, so the database keeps no index and its queries scan.
    """
    rng = random.Random(seed)
    recorder = TraceRecorder(meta={"experiment": "E20", "seed": seed})
    with use_recorder(recorder):
        database = MovingObjectDatabase()
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
        def issue_query(at: float) -> None:
            center = Point(rng.uniform(2.6, 5.4), rng.uniform(3.8, 4.2))
            database.within_distance(center, 0.35, at)

        # Queries interleave with the update ticks so every time
        # segment carries a realistic read+write mix.
        per_tick = max(num_queries // num_updates, 1)
        issued = 0
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
            for _ in range(per_tick):
                if issued >= num_queries:
                    break
                issue_query(t + 0.5)
                issued += 1
        while issued < num_queries:
            issue_query(t + 0.5)
            issued += 1
    return recorder.events()


def table_sharding(num_shards: int = 4, num_objects: int = 24,
                   num_updates: int = 12, num_queries: int = 160,
                   seed: int = 67) -> TableResult:
    """Rank candidate shard plans on the recorded corridor trace."""
    events = record_corridor_trace(
        num_objects=num_objects, num_updates=num_updates,
        num_queries=num_queries, seed=seed,
    )
    workload = workload_from_events(events)
    model = ShardCostModel()
    ranked = PartitionSearcher(num_shards, model).rank(workload)
    default = uniform_grid_for(workload.bounds, num_shards)
    default_label = f"uniform-{default.nx}x{default.ny}"
    rows: list[list[object]] = []
    for scored in ranked:
        fanouts = measured_fanouts(scored.partitioning, workload)
        label = scored.label
        if label == default_label:
            label += " (default)"
        rows.append([
            label,
            scored.cost.update_fanout,
            scored.cost.query_fanin,
            scored.cost.temporal_skew,
            scored.cost.total,
            percentile(fanouts, 0.95) if fanouts else 0.0,
        ])
    return TableResult(
        experiment_id="E20",
        title=(
            f"Shard-plan search on the corridor trace "
            f"({num_objects} objects, {num_queries} queries, "
            f"{num_shards} shards; best plan first)"
        ),
        headers=["plan", "update fan-out", "query fan-in",
                 "temporal skew", "total cost", "p95 query fan-out"],
        rows=rows,
    )


__all__ = [
    "record_corridor_trace",
    "table_sharding",
]
