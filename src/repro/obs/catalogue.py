"""The metric catalogue: every series the library emits, declared once.

A hook names a metric and states a value (``p.count("index_searches_total")``);
what that name *is* — its kind, its ``# HELP`` text, its histogram
buckets, the counter a failing timed block bumps — is declared here
and nowhere else, so two hooks cannot disagree about a name and an
exporter never prints a series nobody described.  ``tests/obs/test_one_probe.py`` holds the two in
step: every name a hook hands to the probe is listed, and every listed
name is emitted by some hook.

Names follow the Prometheus conventions (``*_total`` counters,
``*_seconds`` / ``*_miles`` units).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import COUNT_BUCKETS, LATENCY_BUCKETS_S, MILE_BUCKETS

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Shards that can answer one query window.
FANOUT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True, slots=True)
class Metric:
    """One declared series."""

    kind: str
    help: str
    #: Histogram bucket edges.
    buckets: tuple[float, ...] = LATENCY_BUCKETS_S
    #: The counter a ``timed`` block over this histogram bumps when it
    #: raises.
    errors: str | None = None


CATALOGUE: dict[str, Metric] = {
    # -- sim: one policy run (§3.4), per tick and per run ---------------
    "sim_tick_deviation_miles": Metric(
        HISTOGRAM, "Per-tick onboard deviation samples.", MILE_BUCKETS),
    "sim_tick_bound_miles": Metric(
        HISTOGRAM, "Per-tick DBMS-side uncertainty bound samples.",
        MILE_BUCKETS),
    "sim_updates_total": Metric(
        COUNTER, "Position-update messages decided by the engine."),
    "sim_runs_total": Metric(COUNTER, "Completed simulation runs."),
    "sim_ticks_total": Metric(COUNTER, "Engine ticks executed."),
    "sim_run_seconds": Metric(
        HISTOGRAM, "Wall-clock time per simulation run."),
    "sim_avg_deviation_miles": Metric(
        GAUGE, "Time-averaged deviation of the last run."),
    "sim_total_cost": Metric(GAUGE, "Total cost (eq. 2) of the last run."),
    # -- fleet ------------------------------------------------------------
    "fleet_vehicles": Metric(GAUGE, "Vehicles registered in the fleet."),
    "fleet_messages_total": Metric(
        COUNTER, "Update messages transmitted by the whole fleet."),
    "fleet_vehicle_messages_total": Metric(
        COUNTER, "Update messages transmitted per vehicle."),
    "fleet_avg_deviation_miles": Metric(
        GAUGE, "Time-averaged deviation over the policy's vehicles, each "
               "over its whole trip."),
    "fleet_messages_per_minute": Metric(
        GAUGE, "Aggregate update bandwidth of the run."),
    # -- exec: the sweep executor and its tick-grid cache -----------------
    "exec_cache_hits_total": Metric(
        COUNTER, "Tick-grid cache hits (grid reused by a later sweep run)."),
    "exec_cache_misses_total": Metric(
        COUNTER, "Tick-grid cache misses (grid built from the trip)."),
    "exec_tasks_total": Metric(
        COUNTER, "Sweep executions dispatched through the executor."),
    "exec_cells_total": Metric(
        COUNTER, "Simulation cells executed by the executor."),
    "exec_pool_seconds": Metric(
        HISTOGRAM, "Wall-clock seconds per sweep execution."),
    # -- dbms: updates (§3.1) and queries (§4) ---------------------------
    # Stated as an ``update`` trace event (``Probe.event``).
    "dbms_update_messages_total": Metric(
        COUNTER, "Position-update messages received by the database."),
    "dbms_update_seconds": Metric(
        HISTOGRAM,
        "Latency of installing one position update (incl. reindex)."),
    "dbms_query_seconds": Metric(
        HISTOGRAM, "Query-processor latency by query kind."),
    "dbms_classified_total": Metric(
        COUNTER, "Candidate classifications by may/must outcome."),
    "dbms_batch_seconds": Metric(
        HISTOGRAM, "Wall-clock latency of one query batch.",
        errors="dbms_batch_errors_total"),
    "dbms_batch_errors_total": Metric(
        COUNTER, "Query batches that raised instead of answering."),
    "dbms_batch_queries_total": Metric(
        COUNTER, "Queries answered by the batch engine, by kind."),
    "dbms_batch_cache_hits_total": Metric(
        COUNTER, "Uncertainty-cache hits in the batch engine."),
    "dbms_batch_cache_misses_total": Metric(
        COUNTER, "Uncertainty-cache misses in the batch engine."),
    "dbms_batch_cache_hit_rate": Metric(
        GAUGE, "Lifetime hit rate of the batch uncertainty cache."),
    # -- index: the §4.2 time-space index and its R-tree -----------------
    "index_searches_total": Metric(COUNTER, "R-tree searches executed."),
    "index_multi_searches_total": Metric(
        COUNTER, "Batched R-tree traversals executed."),
    "index_multi_search_queries_total": Metric(
        COUNTER, "Query boxes answered by batched traversals."),
    "index_nodes_visited_total": Metric(
        COUNTER, "R-tree nodes visited across all searches."),
    "index_entries_tested_total": Metric(
        COUNTER, "R-tree entries intersection-tested across all searches."),
    "index_search_results": Metric(
        HISTOGRAM, "Result-set size per R-tree search.", COUNT_BUCKETS),
    "index_multi_node_share": Metric(
        HISTOGRAM, "Queries sharing each node visit of a batched "
                   "traversal (mean per batch).", COUNT_BUCKETS),
    "index_boxes_inserted_total": Metric(
        COUNTER, "Boxes inserted into the time-space index (one per run "
                 "of slabs sharing a rectangle)."),
    "index_boxes_removed_total": Metric(
        COUNTER, "Boxes removed from the time-space index (one per run "
                 "of slabs sharing a rectangle)."),
    "index_replace_skipped_total": Metric(
        COUNTER, "Replaces skipped because slab boxes were unchanged."),
    "index_objects": Metric(GAUGE, "Objects currently indexed."),
    "index_slab_boxes": Metric(
        GAUGE, "Boxes currently stored: one per run of slabs sharing a "
               "rectangle."),
    # -- shard: ownership under a partitioning.  The help texts are
    # exported and pinned by golden outputs, so they keep the wording of
    # the per-shard-tree layout.
    "shard_query_fanout": Metric(
        HISTOGRAM, "Shards answering a query window with a candidate.",
        FANOUT_BUCKETS),
    "shard_queries_total": Metric(
        COUNTER, "Query windows searched by the partitioned index."),
    "shard_updates_total": Metric(
        COUNTER, "Position updates routed to each shard."),
    "shard_objects": Metric(GAUGE, "Mobile objects owned by each shard."),
}

#: What a name outside the catalogue is taken for (a caller's own
#: ``timed`` / ``time_section`` metric): no help, latency buckets.
UNLISTED = Metric("", "")

__all__ = [
    "CATALOGUE",
    "Metric",
    "UNLISTED",
]
