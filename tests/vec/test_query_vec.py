"""Vectorized batch-query path: same answers, same cache accounting.

With the query core's candidate floor at 1 (the bulk pre-tests run on
every query) the batch engine must return exactly the answers of the
floor at infinity (the scalar pre-tests only), which are themselves
byte-identical to the sequential database calls, and count exactly the
same cache hits and misses, across policies, filters, repeat runs, and
position updates.
"""

import pytest

pytest.importorskip("numpy")

from repro.dbms import refine as refine_module
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.update_log import PositionUpdateMessage
from repro.index.timespace import TimeSpaceIndex

from tests.dbms.test_batch import build_database, build_workload, sequential


def counters(engine):
    return engine.cache_hits, engine.cache_misses


#: Candidate floors that force the bulk pre-tests on (even for tiny
#: candidate sets) and off.
VECTOR, SCALAR = 1, float("inf")


@pytest.fixture
def floor(monkeypatch):
    """Set the query core's candidate floor for the runs that follow."""
    return lambda value: monkeypatch.setattr(
        refine_module, "_MIN_VEC_CANDIDATES", value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_answers_match_scalar_and_sequential(seed, floor):
    database, network, object_ids = build_database(
        TimeSpaceIndex(slab_minutes=5.0), seed=seed
    )
    queries = build_workload(network, object_ids, seed=seed + 50)
    expected = sequential(database, queries)

    scalar_db, _, _ = build_database(
        TimeSpaceIndex(slab_minutes=5.0), seed=seed
    )
    scalar = BatchQueryEngine(scalar_db)
    vec_db, _, _ = build_database(
        TimeSpaceIndex(slab_minutes=5.0), seed=seed
    )
    vec = BatchQueryEngine(vec_db)

    floor(SCALAR)
    assert scalar.run(list(queries)) == expected
    floor(VECTOR)
    assert vec.run(list(queries)) == expected
    assert counters(vec) == counters(scalar)


def test_cache_reuse_and_invalidation_match_scalar(floor):
    engines = []
    for candidates in (SCALAR, VECTOR):
        floor(candidates)
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        queries = build_workload(network, object_ids)
        first = engine.run(list(queries))
        # Re-running hits the generation-keyed cache ...
        second = engine.run(list(queries))
        assert second == first
        # ... and a position update invalidates exactly the moved
        # objects, scalar and vectorized alike.
        for object_id in object_ids[:3]:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, 6.0)
            database.process_update(PositionUpdateMessage(
                object_id, 6.0, position.x, position.y, speed=0.25,
            ))
        third = engine.run(list(queries))
        engines.append((first, second, third, counters(engine)))
    assert engines[0] == engines[1]
