"""Parallel per-partition fan-out for the batch engine.

:class:`~repro.dbms.batch.BatchQueryEngine` with ``jobs > 1`` hands a
validated batch to :func:`answer_in_pool`.  Over a
:class:`~repro.shard.sharded.PartitionedIndex` each query is routed to
the partitions that can contribute candidates (the owner for position
queries, the coverage-intersecting partitions for range and
within-distance queries); when more than one partition is reached,
every partition's sub-batch is answered in a fork
``ProcessPoolExecutor`` worker — candidates from that partition's
inner index, classification over the shared records — and the pieces
are merged back into query order, byte-identical to the serial answer.

State reaches the workers the way the sweep executor passes it: the
engine (database, index and uncertainty cache as of the fork) is
installed as a worker global by the pool initializer, so nothing
heavyweight is pickled per task.  Entries a worker derives stay in the
worker; its hit and miss counts are added to the engine's.  Telemetry
comes home the way the sweep executor's does, too: a partition runs
under the probe's worker session and returns what it published as a
bundle, which the parent adopts under ``worker="shard-N"``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.dbms.batch import (
    BatchAnswer,
    BatchQuery,
    BatchQueryEngine,
    PositionQuery,
)
from repro.dbms.query import RangeAnswer
from repro.errors import ShardError
from repro.exec.executor import pool_context
from repro.index.rtree import SearchStats
from repro.index.scan import LinearScanIndex
from repro.obs.probe import probe
from repro.shard.sharded import PartitionedIndex

_WORKER_ENGINE: BatchQueryEngine | None = None


def _init_worker(engine: BatchQueryEngine) -> None:
    """Install the forked engine as this worker's global."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine


def _run_partition(shard: int, queries: list[BatchQuery]) -> tuple[
        list[BatchAnswer], int, int, tuple[int, int, int], dict | None]:
    """Answer one partition's sub-batch in a worker process.

    Returns the answers, the cache hit and miss deltas, the index work
    and — when the parent observes — the worker's telemetry bundle.
    """
    engine = _WORKER_ENGINE
    if engine is None:
        raise ShardError(
            "shard worker ran a task before its initializer installed "
            "the engine"
        )
    hits, misses = engine.cache_hits, engine.cache_misses
    stats = SearchStats()
    with probe().isolated() as p:
        answers = engine.answer_over(
            engine.database._index.partitions[shard], queries, stats,
            stationary=False,
        )
        bundle = p.capture()
    return (answers, engine.cache_hits - hits, engine.cache_misses - misses,
            (stats.nodes_visited, stats.entries_tested, stats.results),
            bundle)


def _merge_range(previous: RangeAnswer, piece: RangeAnswer) -> RangeAnswer:
    """Fold one partition's partial answer in.

    Candidate sets partition by owner shard, so unions and sums
    reproduce the single-index fields exactly.
    """
    return RangeAnswer(
        time=piece.time,
        may=previous.may | piece.may,
        must=previous.must | piece.must,
        examined=previous.examined + piece.examined,
        candidates=previous.candidates | piece.candidates,
    )


def answer_in_pool(engine: BatchQueryEngine, queries: list[BatchQuery],
                   stats: SearchStats | None) -> list[BatchAnswer] | None:
    """Answer a validated batch one partition per worker.

    Returns ``None`` — the engine then answers serially — unless the
    database's index is partitioned and the batch reaches more than one
    partition.
    """
    index = engine.database._index
    if not isinstance(index, PartitionedIndex):
        return None
    core = engine.database._core
    routed = [
        (index.owner_of(query.object_id),)
        if isinstance(query, PositionQuery)
        else index.shards_for_window(core.region_of(query).window)
        for query in queries
    ]
    active = sorted({shard for fanned in routed for shard in fanned})
    if len(active) < 2:
        return None
    sub_queries: list[list[BatchQuery]] = [
        [] for _ in range(index.num_shards)
    ]
    sub_slots: list[list[int]] = [[] for _ in range(index.num_shards)]
    searching: list[int] = []
    for slot, (query, fanned) in enumerate(zip(queries, routed)):
        if not isinstance(query, PositionQuery):
            index.observe_fanout(len(fanned))
            searching.append(slot)
        for shard in fanned:
            sub_queries[shard].append(query)
            sub_slots[shard].append(slot)
    # The stationary objects' share of each range/within answer, once:
    # an empty index contributes no mobile candidates.
    merged: list[BatchAnswer | None] = [None] * len(queries)
    for slot, piece in zip(searching, engine.answer_over(
            LinearScanIndex(), [queries[slot] for slot in searching])):
        merged[slot] = piece
    with ProcessPoolExecutor(
        max_workers=min(engine.jobs, len(active)),
        mp_context=pool_context(),
        initializer=_init_worker, initargs=(engine,),
    ) as pool:
        futures = [
            pool.submit(_run_partition, shard, sub_queries[shard])
            for shard in active
        ]
        for shard, future in zip(active, futures):
            answers, hits, misses, counted, bundle = future.result()
            probe().adopt(bundle, worker=f"shard-{shard}")
            engine.cache_hits += hits
            engine.cache_misses += misses
            if stats is not None:
                stats.nodes_visited += counted[0]
                stats.entries_tested += counted[1]
                stats.results += counted[2]
            for slot, piece in zip(sub_slots[shard], answers):
                previous = merged[slot]
                merged[slot] = piece if previous is None \
                    else _merge_range(previous, piece)
    return merged  # type: ignore[return-value]


__all__ = [
    "answer_in_pool",
]
