"""Wall-clock benchmark of the batched query engine.

Builds a city fleet (grid network, dead-reckoned taxis with ail
policies, a handful of stationary depots), applies a round of position
updates to churn generations, then answers one mixed workload of
position / range / within-distance queries three ways over the
identical records:

* **reference** — ``tests/oracle/query_reference.py``: cache-free,
  pre-test-free sequential refinement, the independent oracle (untimed),
* **sequential** — one :class:`MovingObjectDatabase` call per query:
  each a batch of one through the database's query core (one plain
  R-tree search per query), on its own cold database,
* **batched** — a single :meth:`BatchQueryEngine.run` over the same
  query list (one shared R-tree traversal, hoisted filter sets), cold
  and then warm.

and asserts (not eyeballs) that all three answer lists are
*byte-identical* (``PositionAnswer`` / ``RangeAnswer`` equality,
element by element).  The sequential and batched legs share one
refinement procedure and one cache design, so their wall-clock ratio
measures only what a batch adds — traversal sharing and hoisted filter
sets; it is reported, not gated.

A separate untimed leg re-runs the batch under a live metrics registry
so the JSON report carries the exported uncertainty-cache hit rate and
multi-search counters (the timed legs stay registry-free so neither
side pays metric overhead)::

    python benchmarks/bench_query_batch.py            # 500 obj / 1000 q
    python benchmarks/bench_query_batch.py --fast     # CI smoke
    python benchmarks/bench_query_batch.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

from repro.core.policies import make_policy
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.geometry.point import Point
from repro.index.timespace import TimeSpaceIndex
from repro.obs import MetricsRegistry, use_registry
from repro.routes.generators import grid_city_network
from repro.workloads.query_workloads import mixed_query_workload

#: Query instants — a serving workload clusters around "now".
QUERY_TIMES = (10.0, 12.5, 15.0)
UPDATE_TIME = 5.0


def build_database(num_objects: int, num_depots: int,
                   seed: int) -> tuple[MovingObjectDatabase, list[str]]:
    """A populated city database with an attached time-space index."""
    rng = random.Random(seed)
    network = grid_city_network(12, 12, 0.25)
    database = MovingObjectDatabase(
        index=TimeSpaceIndex(slab_minutes=5.0), horizon=120.0
    )
    database.schema.define_mobile_point_class("taxi")
    database.schema.define(
        ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY)
    )

    object_ids = []
    for i in range(num_objects):
        route = network.random_route(rng, min_length=1.0)
        database.register_route(route)
        direction = rng.randrange(2)
        speed = rng.uniform(0.2, 0.6)
        object_id = f"taxi-{i:04d}"
        database.insert_moving_object(
            object_id, "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction, speed,
            make_policy("ail", 5.0), max_speed=speed * 1.6,
        )
        object_ids.append(object_id)

    min_x, min_y, max_x, max_y = network.bounding_extent()
    for i in range(num_depots):
        database.insert_stationary_object(
            f"depot-{i:02d}", "depot",
            Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)),
        )

    # One round of position updates for half the fleet: generation
    # churn, index replaces, and a mix of fresh/stale attributes.
    for object_id in object_ids[::2]:
        record = database.record(object_id)
        route = database.routes.get(record.attribute.route_id)
        position = record.database_position(route, UPDATE_TIME)
        database.process_update(PositionUpdateMessage(
            object_id, UPDATE_TIME, position.x, position.y,
            speed=rng.uniform(0.2, 0.6),
        ))

    return database, object_ids


def build_workload(num_queries: int, object_ids: list[str], seed: int):
    rng = random.Random(seed + 1)
    network = grid_city_network(12, 12, 0.25)
    return mixed_query_workload(
        network, rng, num_queries, object_ids, QUERY_TIMES,
    )


def reference_answers(database: MovingObjectDatabase, queries) -> list:
    """The oracle's answers (it lives with the tests, outside ``src``)."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests.oracle.query_reference import sequential

    return sequential(database, queries)


def run_sequential(database: MovingObjectDatabase, queries) -> list:
    """One database call per query, in order."""
    answers = []
    for query in queries:
        if isinstance(query, PositionQuery):
            answers.append(database.position_of(query.object_id, query.time))
        elif isinstance(query, RangeQuery):
            answers.append(database.range_query(
                query.polygon, query.time,
                where=query.where, class_name=query.class_name,
            ))
        else:
            answers.append(database.within_distance(
                query.center, query.radius, query.time,
                where=query.where, class_name=query.class_name,
            ))
    return answers


def timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def metered_batch(database: MovingObjectDatabase, queries) -> dict:
    """Untimed batch re-run under a live registry: exported metrics."""
    engine = BatchQueryEngine(database)
    with use_registry(MetricsRegistry()) as registry:
        engine.run(queries)
        return {
            "cache_hit_rate": registry.value("dbms_batch_cache_hit_rate"),
            "cache_hits": registry.value("dbms_batch_cache_hits_total"),
            "cache_misses": registry.value("dbms_batch_cache_misses_total"),
            "multi_searches": registry.value("index_multi_searches_total"),
            "multi_search_queries": registry.value(
                "index_multi_search_queries_total"
            ),
        }


def run_benchmark(fast: bool = False, seed: int = 1998) -> dict:
    num_objects = 60 if fast else 500
    num_queries = 150 if fast else 1000
    num_depots = 4 if fast else 12

    database, object_ids = build_database(num_objects, num_depots, seed)
    queries = build_workload(num_queries, object_ids, seed)
    expected = reference_answers(database, queries)

    # Its own database: the cache is the database's, and each timed leg
    # starts cold.
    sequential_database, _ = build_database(num_objects, num_depots, seed)
    sequential_answers, sequential_seconds = timed(
        lambda: run_sequential(sequential_database, queries)
    )

    engine = BatchQueryEngine(database)
    batch_answers, batch_seconds = timed(lambda: engine.run(queries))

    # A second batch over the same workload: the cache is warm across
    # run() calls, so this bounds steady-state serving.
    warm_answers, warm_seconds = timed(lambda: engine.run(queries))

    identical = batch_answers == expected
    identical_warm = warm_answers == expected
    identical_sequential = sequential_answers == expected

    report = {
        "workload": {
            "num_objects": num_objects,
            "num_depots": num_depots,
            "num_queries": num_queries,
            "query_times": list(QUERY_TIMES),
            "seed": seed,
            "fast": fast,
        },
        "sequential_seconds": sequential_seconds,
        "batch_seconds": batch_seconds,
        "batch_warm_seconds": warm_seconds,
        "speedup": sequential_seconds / batch_seconds,
        "speedup_warm": sequential_seconds / warm_seconds,
        "byte_identical": identical,
        "byte_identical_warm": identical_warm,
        "byte_identical_sequential": identical_sequential,
        "cache": {
            "hits": engine.cache_hits,
            "misses": engine.cache_misses,
            "hit_rate": engine.hit_rate(),
            "entries": engine.cache_size(),
        },
        "exported_metrics": metered_batch(database, queries),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the batched query engine."
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced workload for CI smoke "
                             "(correctness asserted either way)")
    parser.add_argument("--seed", type=int, default=1998,
                        help="workload random seed")
    parser.add_argument("--output", default="BENCH_query_batch.json",
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_benchmark(fast=args.fast, seed=args.seed)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    workload = report["workload"]
    print(f"workload          : {workload['num_queries']} queries over "
          f"{workload['num_objects']} objects "
          f"({'fast' if args.fast else 'full'})")
    print(f"sequential        : {report['sequential_seconds']:.3f} s")
    print(f"batch (cold)      : {report['batch_seconds']:.3f} s "
          f"({report['speedup']:.2f}x)")
    print(f"batch (warm)      : {report['batch_warm_seconds']:.3f} s "
          f"({report['speedup_warm']:.2f}x)")
    print(f"cache hit rate    : {report['cache']['hit_rate']:.3f} "
          f"({report['cache']['hits']} hits / "
          f"{report['cache']['misses']} misses)")
    print(f"report written to : {args.output}")

    for key, leg in (("byte_identical", "batch"),
                     ("byte_identical_warm", "warm-cache batch"),
                     ("byte_identical_sequential", "one-at-a-time")):
        if not report[key]:
            print(f"FAIL: {leg} answers differ from the reference",
                  file=sys.stderr)
            return 1
    print("OK: batch, warm batch and one-at-a-time answers are "
          "byte-identical to the reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
