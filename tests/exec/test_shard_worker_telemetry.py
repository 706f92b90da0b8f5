"""The shard pool must not lose its workers' telemetry.

``BatchQueryEngine(jobs > 1)`` answers one partition per forked worker.
What a worker counts — candidate classifications, R-tree work — dies
with it unless the partition ships it back, the way the sweep pool's
rectangles do (``test_worker_telemetry.py``): as the probe's bundle,
adopted under a ``worker="shard-N"`` label.
"""

import pytest

from repro.dbms.batch import BatchQueryEngine
from repro.errors import ShardError
from repro.obs import observe
from repro.shard import parallel, uniform_grid_for
from tests.shard.test_sharded_database import (
    build_queries,
    digest,
    fleet_bounds,
    populate_fleet,
    sharded_database,
)

#: Counted inside a partition's worker (or, serially, in the parent).
WORKER_SERIES = (
    "dbms_classified_total",
    "index_searches_total",
    "index_multi_searches_total",
    "index_multi_search_queries_total",
    "index_nodes_visited_total",
    "index_entries_tested_total",
)


def four_shard_database():
    database = sharded_database(uniform_grid_for(fleet_bounds(), 4))
    network, object_ids = populate_fleet(database)
    return database, build_queries(network, object_ids)


def observed_run(jobs):
    """Answers and the counters of one observed batch, each summed over
    everything but its own labels (``worker`` dropped)."""
    database, queries = four_shard_database()
    with observe(registry=True, tracer=True) as p:
        answers = BatchQueryEngine(database, jobs=jobs).run(queries)
        samples = p.registry.snapshot()["counters"]
        spans = list(p.tracer.spans)
    totals = {}
    for sample in samples:
        labels = {k: v for k, v in sample["labels"].items() if k != "worker"}
        key = (sample["name"], tuple(sorted(labels.items())))
        totals[key] = totals.get(key, 0.0) + sample["value"]
    workers = {sample["labels"]["worker"] for sample in samples
               if "worker" in sample["labels"]}
    return answers, totals, workers, spans


def test_pooled_counters_match_serial_under_worker_labels():
    serial_answers, serial, serial_workers, _ = observed_run(jobs=1)
    pooled_answers, pooled, pooled_workers, _ = observed_run(jobs=2)
    assert pooled_answers == serial_answers
    assert digest(pooled_answers) == digest(serial_answers)
    assert serial_workers == set()
    assert len(pooled_workers) > 1
    assert all(worker.startswith("shard-") for worker in pooled_workers)
    compared = [key for key in serial if key[0] in WORKER_SERIES]
    assert {key[0] for key in compared} >= {
        "dbms_classified_total", "index_multi_searches_total",
        "index_nodes_visited_total", "index_entries_tested_total"}
    for key in compared:
        assert serial[key] > 0 or key[0] == "dbms_classified_total", key
        assert pooled.get(key) == serial[key], key


def test_a_partition_returns_a_bundle_only_when_observed():
    database, queries = four_shard_database()
    engine = BatchQueryEngine(database, jobs=2)
    parallel._init_worker(engine)
    try:
        *_, bundle = parallel._run_partition(0, queries)
        assert bundle is None
        with observe(registry=True, tracer=True) as p:
            *_, bundle = parallel._run_partition(0, queries)
            # The worker session published to fresh sinks, not these.
            assert len(p.registry) == 0 and len(p.tracer) == 0
        names = {sample["name"] for sample in bundle["metrics"]["counters"]}
        assert "dbms_classified_total" in names
        assert bundle["spans"] == []
    finally:
        parallel._init_worker(None)


def test_unobserved_pool_is_still_correct():
    database, queries = four_shard_database()
    expected = BatchQueryEngine(database).run(queries)
    assert BatchQueryEngine(database, jobs=2).run(queries) == expected


def test_a_worker_without_its_engine_is_a_domain_error():
    assert parallel._WORKER_ENGINE is None
    with pytest.raises(ShardError, match="before its initializer"):
        parallel._run_partition(0, [])
