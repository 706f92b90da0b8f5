"""E19: time-slab granularity tuning for the time-space index.

§4.2 leaves the index's space/time partitioning to "performance
considerations that we intend to study in future work".  The knob our
implementation exposes is the slab width (minutes of o-plane per
indexed box).  The trade-off:

* *narrow slabs* — tight boxes, few false-positive candidates per
  query, but more boxes per o-plane (more maintenance work per update
  and a bigger tree);
* *wide slabs* — cheap maintenance, loose boxes that admit candidates
  whose uncertainty interval is nowhere near the query at ``t0``.

The sweep quantifies both sides so deployments can pick a width that
matches their query/update mix.
"""

from __future__ import annotations

import random

from repro.experiments.indexing import _simulate_fleet
from repro.experiments.tables import TableResult
from repro.index.rtree import SearchStats
from repro.workloads.query_workloads import polygon_query_workload


def table_slab_tuning(slab_widths: tuple[float, ...] = (1.0, 2.5, 5.0, 10.0, 20.0),
                      num_objects: int = 150, num_queries: int = 20,
                      duration: float = 10.0,
                      seed: int = 59) -> TableResult:
    """Candidates/query and maintenance cost per slab width."""
    built = _simulate_fleet(num_objects, seed, duration=duration)
    # The same query workload for every slab width — the rows must
    # differ only in index granularity.
    polygons = polygon_query_workload(
        built.network, random.Random(seed + 1), num_queries,
        side_miles=(1.0, 2.0),
    )
    t = built.end_time
    rows: list[list[object]] = []
    for slab_minutes in slab_widths:
        # Rebuild the index at the requested granularity from the final
        # database state (same objects, same planes, different slabs).
        index = built.database.rebuild_index(slab_minutes=slab_minutes)
        candidates_total = 0
        entries_total = 0
        answers_total = 0
        for polygon in polygons:
            stats = SearchStats()
            answer = built.database.range_query(polygon, t, stats)
            candidates_total += answer.examined
            entries_total += stats.entries_tested
            answers_total += len(answer.may)
        # Maintenance cost: boxes swapped per position update.
        sample_id = built.database.object_ids()[0]
        swap = index.replace(
            sample_id, built.database.oplane_of(sample_id), force=True
        )
        rows.append(
            [
                slab_minutes,
                index.total_boxes(),
                swap.boxes_inserted,
                candidates_total / num_queries,
                entries_total / num_queries,
                answers_total / num_queries,
            ]
        )
    return TableResult(
        experiment_id="E19",
        title=(
            f"Time-slab granularity tuning "
            f"({num_objects} objects, {num_queries} queries)"
        ),
        headers=["slab (min)", "boxes stored", "boxes/update",
                 "candidates/query", "entries tested/query", "avg |may|"],
        rows=rows,
    )

__all__ = [
    "table_slab_tuning",
]
