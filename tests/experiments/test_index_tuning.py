"""Unit tests for repro.experiments.index_tuning (E19)."""

import random

from repro.experiments.index_tuning import table_slab_tuning
from repro.experiments.indexing import _build_fleet
from repro.index.rtree import SearchStats
from repro.workloads.query_workloads import polygon_query_workload


def rows_with_a_fleet_per_width(slab_widths, num_objects, num_queries,
                                duration=10.0, seed=59):
    """E19's rows the way they were first computed: a fresh fleet per width,
    simulated against a swap-maintained index before the rebuild."""
    rows = []
    for slab_minutes in slab_widths:
        built = _build_fleet(num_objects, seed, maintained=True,
                             duration=duration)
        index = built.database.rebuild_index(slab_minutes=slab_minutes)
        polygons = polygon_query_workload(
            built.network, random.Random(seed + 1), num_queries,
            side_miles=(1.0, 2.0),
        )
        candidates = entries = answers = 0
        for polygon in polygons:
            stats = SearchStats()
            answer = built.database.range_query(polygon, built.end_time, stats)
            candidates += answer.examined
            entries += stats.entries_tested
            answers += len(answer.may)
        sample_id = built.database.object_ids()[0]
        swap = index.replace(
            sample_id, built.database.oplane_of(sample_id), force=True
        )
        rows.append([slab_minutes, index.total_boxes(), swap.boxes_inserted,
                     candidates / num_queries, entries / num_queries,
                     answers / num_queries])
    return rows


class TestSlabTuning:
    def test_tradeoff_shape(self):
        table = table_slab_tuning(
            slab_widths=(2.0, 10.0), num_objects=40, num_queries=6
        )
        narrow, wide = table.rows
        # Narrow slabs: more boxes stored and swapped, fewer candidates.
        assert narrow[1] > wide[1]
        assert narrow[2] > wide[2]
        assert narrow[3] <= wide[3]
        # Exactness invariant across widths.
        assert narrow[5] == wide[5]

    def test_one_build_equals_a_build_per_width(self):
        # The queries and the forced swap of one width must leave nothing
        # behind that the next width's rebuild can see.
        widths = (1.0, 2.5, 5.0, 20.0)
        table = table_slab_tuning(
            slab_widths=widths, num_objects=30, num_queries=8
        )
        assert table.rows == rows_with_a_fleet_per_width(widths, 30, 8)
