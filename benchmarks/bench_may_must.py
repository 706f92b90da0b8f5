"""E8: may/must answer soundness (Theorems 5-6) against ground truth.

"The answer to the query Q consists of the set S of objects that may
be in G, together with a subset of S consisting of the objects that
must be in G."  Validates, over a randomized fleet and query workload,
that every must-answer is truly inside the region and that no object
outside the may-set is inside — zero violations.
"""

import random

from repro.experiments.indexing import _build_fleet, experiment_may_must_correctness
from repro.workloads.query_workloads import polygon_query_workload


def test_may_must_correctness(benchmark):
    table = experiment_may_must_correctness(
        num_objects=100, num_queries=25, seed=9
    )
    print()
    print(table.render())

    assert table.row_by_key("violations")[1] == 0
    assert table.row_by_key("must answers verified inside")[1] > 0
    assert table.row_by_key("ground-truth inside occurrences")[1] > 0

    # Kernel timed: classification of one query against a live fleet.
    built = _build_fleet(80, seed=10)
    rng = random.Random(2)
    polygon = polygon_query_workload(built.network, rng, 1)[0]
    t = built.end_time
    benchmark(lambda: built.database.range_query(polygon, t))
