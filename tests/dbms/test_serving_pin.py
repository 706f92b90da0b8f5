"""One serving-shaped pin: every answer and the whole tree, as literals.

A small ``serve_mixed`` (the end-to-end benchmark's workload): 60 taxis
on a 10×10 grid, one burst of position updates, then 200 mixed queries
— plus the triangle cut from each range query's rectangle, so the
polygon classifier also runs with no rectangle shortcut — answered as
one batch and one at a time.  The digests below were taken from the
tree *before* the segment screens, the float-local R-tree search and
``Route.interval_rect`` existed (commit 39d8818): those changes may skip
work, never move an answer or a stored box.  The index literals hold
slab boxes: the tree stores one box per run of slabs sharing a
rectangle, and ``content_digest()`` expands each run back into its
slabs before hashing, so the literals still apply.
"""

from __future__ import annotations

import hashlib
import random

from repro import (
    BatchQueryEngine,
    MovingObjectDatabase,
    PositionQuery,
    PositionUpdateMessage,
    RangeQuery,
    TimeSpaceIndex,
    grid_city_network,
    make_policy,
)
from repro.geometry.polygon import Polygon
from repro.trace import answer_digest
from repro.workloads import mixed_query_workload

ANSWERS_SHA256 = (
    "0583d9b109044fec6ca04a51caa07252072670086b6b567df8c5e0dfb84443fd")
INDEX_BEFORE_SHA256 = (
    "9a0a991d62516d107e1b3fbeb0283f49c9eb984ad3ffc06162e066eac44bf6d0")
INDEX_AFTER_SHA256 = (
    "0e1d271a3e9028fd3f84d36217207840e5f016fcdd7d559165c37a60143fc1ee")


def build():
    rng = random.Random(24)
    network = grid_city_network(10, 10, 0.25)
    index = TimeSpaceIndex(slab_minutes=5.0)
    database = MovingObjectDatabase(index=index, horizon=120.0)
    database.schema.define_mobile_point_class("taxi")
    object_ids = []
    for i in range(60):
        route = network.random_route(rng, min_length=1.0)
        database.register_route(route)
        direction = rng.randrange(2)
        speed = rng.uniform(0.2, 0.6)
        object_ids.append(f"taxi-{i:04d}")
        database.insert_moving_object(
            object_ids[-1], "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction, speed,
            make_policy("ail", 5.0), max_speed=speed * 1.6,
        )
    return rng, network, index, database, object_ids


def one_at_a_time(database, query):
    if isinstance(query, PositionQuery):
        return database.position_of(query.object_id, query.time)
    if isinstance(query, RangeQuery):
        return database.range_query(query.polygon, query.time)
    return database.within_distance(query.center, query.radius, query.time)


def test_serving_answers_and_tree_are_the_parents():
    rng, network, index, database, object_ids = build()
    before = index.content_digest()
    for object_id in rng.sample(object_ids, 20):
        record = database.record(object_id)
        route = database.routes.get(record.attribute.route_id)
        position = record.database_position(route, 5.0)
        database.process_update(PositionUpdateMessage(
            object_id, 5.0, position.x, position.y,
            speed=rng.uniform(0.2, 0.6)))
    queries = mixed_query_workload(
        network, rng, 200, object_ids, (10.0, 12.5, 15.0),
        side_miles=(0.3, 0.9), radius_miles=(0.2, 0.5))
    queries += [
        RangeQuery(Polygon(query.polygon.vertices[:3]), query.time)
        for query in queries if isinstance(query, RangeQuery)
    ]
    batched = BatchQueryEngine(database).run(queries)
    singles = [one_at_a_time(database, query) for query in queries]
    assert batched == singles
    rollup = hashlib.sha256()
    for answer in batched:
        rollup.update(answer_digest(answer).encode())
    outcomes = [answer for answer in batched if hasattr(answer, "may")]
    assert any(answer.may - answer.must for answer in outcomes)
    assert any(answer.must for answer in outcomes)
    assert (before, index.content_digest(), rollup.hexdigest()) == (
        INDEX_BEFORE_SHA256, INDEX_AFTER_SHA256, ANSWERS_SHA256)
    index.tree.check_invariants()
