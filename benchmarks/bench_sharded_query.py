"""Wall-clock benchmark of the sharded query fan-out layer.

Builds the same city fleet twice — a :class:`MovingObjectDatabase`
behind one time-space index, and one behind a 4-shard
:class:`PartitionedIndex` under a uniform grid — applies an identical
round of position updates to both, then answers one mixed position /
range / within-distance workload two ways:

* **single** — one ``BatchQueryEngine.run`` over the monolithic
  index (the pre-sharding read path),
* **sharded** — the same over the partitioned index: one multi-search
  per shard, candidate sets unioned,

and asserts (not eyeballs) the claims the shard layer makes:

1. the merged answers are *byte-identical* to the single-shard run —
   both by element-wise equality and by a SHA-256 digest over the
   canonical answer payloads (the same digests the flight recorder
   checks), in every mode;
2. sharding is never a serial regression: the sharded leg must stay
   within ``MAX_OVERHEAD``x of the single-shard time on the
   full workload (2000 objects / 5000 queries).

Any violated claim exits non-zero.  Results are written as JSON for
artifact upload::

    python benchmarks/bench_sharded_query.py            # 2000 obj / 5000 q
    python benchmarks/bench_sharded_query.py --fast     # CI smoke
    python benchmarks/bench_sharded_query.py --shards 8 --output out.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from time import perf_counter

from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.geometry.bbox import Rect2D
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.shard import PartitionedIndex, uniform_grid_for
from repro.trace.events import answer_digest
from repro.workloads.query_workloads import mixed_query_workload

#: No-regression bound: sharding may cost at most this factor over
#: the monolithic engine on the full workload.
MAX_OVERHEAD = 1.5

#: Query instants — a serving workload clusters around "now".
QUERY_TIMES = (10.0, 12.5, 15.0)
UPDATE_TIME = 5.0
#: Window sizes kept local, so most shards' trees reject a window.
SIDE_MILES = (0.3, 0.9)
RADIUS_MILES = (0.2, 0.5)


def _populate(database, num_objects: int, seed: int) -> list[str]:
    """Insert an identical fleet into ``database`` (any index)."""
    rng = random.Random(seed)
    network = grid_city_network(20, 20, 0.25)
    database.schema.define_mobile_point_class("taxi")
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

    # One round of updates for half the fleet: generation churn plus,
    # on the sharded side, swaps routed to the owner shard.
    update_rng = random.Random(seed + 7)
    for object_id in object_ids[::2]:
        record = database.record(object_id)
        route = database.routes.get(record.attribute.route_id)
        position = record.database_position(route, UPDATE_TIME)
        database.process_update(PositionUpdateMessage(
            object_id, UPDATE_TIME, position.x, position.y,
            speed=update_rng.uniform(0.2, 0.6),
        ))
    return object_ids


def build_single(num_objects: int, seed: int):
    database = MovingObjectDatabase(
        index=TimeSpaceIndex(slab_minutes=5.0), horizon=120.0
    )
    object_ids = _populate(database, num_objects, seed)
    return database, object_ids


def build_sharded(num_objects: int, num_shards: int, seed: int):
    network = grid_city_network(20, 20, 0.25)
    partitioning = uniform_grid_for(
        Rect2D(*network.bounding_extent()), num_shards
    )
    database = MovingObjectDatabase(
        index=PartitionedIndex(
            partitioning, lambda: TimeSpaceIndex(slab_minutes=5.0)
        ),
        horizon=120.0,
    )
    object_ids = _populate(database, num_objects, seed)
    return database, object_ids


def build_workload(num_queries: int, object_ids: list[str], seed: int):
    rng = random.Random(seed + 1)
    network = grid_city_network(20, 20, 0.25)
    return mixed_query_workload(
        network, rng, num_queries, object_ids, QUERY_TIMES,
        side_miles=SIDE_MILES, radius_miles=RADIUS_MILES,
    )


def merged_digest(answers) -> str:
    """SHA-256 over the canonical payload digest of every answer."""
    rollup = hashlib.sha256()
    for answer in answers:
        rollup.update(answer_digest(answer).encode("ascii"))
    return rollup.hexdigest()


def timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def run_benchmark(fast: bool = False, num_shards: int = 4,
                  seed: int = 1998) -> dict:
    num_objects = 150 if fast else 2000
    num_queries = 400 if fast else 5000

    single, object_ids = build_single(num_objects, seed)
    sharded, _ = build_sharded(num_objects, num_shards, seed)
    queries = build_workload(num_queries, object_ids, seed)

    single_answers, single_seconds = timed(
        lambda: BatchQueryEngine(single).run(queries)
    )
    sharded_answers, sharded_seconds = timed(
        lambda: BatchQueryEngine(sharded).run(queries)
    )

    single_digest = merged_digest(single_answers)
    report = {
        "workload": {
            "num_objects": num_objects,
            "num_queries": num_queries,
            "num_shards": num_shards,
            "query_times": list(QUERY_TIMES),
            "seed": seed,
            "fast": fast,
        },
        "shard_sizes": sharded._index.shard_sizes(),
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "overhead": sharded_seconds / single_seconds,
        "digest_single": single_digest,
        "digest_sharded": merged_digest(sharded_answers),
        "identical": sharded_answers == single_answers,
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the sharded query fan-out layer."
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced workload for CI smoke (digests "
                             "asserted, speed recorded but not gated)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the sharded leg")
    parser.add_argument("--seed", type=int, default=1998,
                        help="workload random seed")
    parser.add_argument("--output", default="BENCH_sharded_query.json",
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_benchmark(fast=args.fast, num_shards=args.shards,
                           seed=args.seed)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    workload = report["workload"]
    print(f"workload           : {workload['num_queries']} queries over "
          f"{workload['num_objects']} objects, "
          f"{workload['num_shards']} shards "
          f"({'fast' if args.fast else 'full'})")
    print(f"single             : {report['single_seconds']:.3f} s")
    print(f"sharded            : {report['sharded_seconds']:.3f} s "
          f"({report['overhead']:.2f}x)")
    print(f"merged digest      : {report['digest_single'][:16]}…")
    print(f"report written to  : {args.output}")

    # Claim 1 — byte-identical merges — is asserted in every mode.
    if report["digest_sharded"] != report["digest_single"]:
        print("FAIL: sharded merged-answer digest differs from "
              "single-shard", file=sys.stderr)
        return 1
    if not report["identical"]:
        print("FAIL: sharded answers differ element-wise from "
              "single-shard", file=sys.stderr)
        return 1

    # Claim 2 — no regression — only on the full workload; the fast one
    # is too small to time.
    if not args.fast and report["overhead"] > MAX_OVERHEAD:
        print(f"FAIL: sharded overhead {report['overhead']:.2f}x "
              f"exceeds {MAX_OVERHEAD}x", file=sys.stderr)
        return 1
    print("OK: merged answers byte-identical to single-shard"
          + ("" if args.fast else ", overhead within "
             f"{MAX_OVERHEAD}x"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
