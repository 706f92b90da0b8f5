"""E7: sublinear range queries via the time-space index (§4).

"The problem is to evaluate such queries in sublinear time, i.e.
without examining all the objects."  Builds fleets of increasing size,
issues the same polygon-query workload against each, and checks that
the fraction of objects examined *falls* as the fleet grows — the
operational definition of sublinearity — while a linear scan examines
everything by construction.
"""

import random

from repro.experiments.indexing import _build_fleet, experiment_index_sublinearity
from repro.index.rtree import SearchStats
from repro.workloads.query_workloads import polygon_query_workload


def test_index_sublinearity(benchmark):
    table = experiment_index_sublinearity(
        fleet_sizes=(100, 400), queries_per_size=15, seed=5
    )
    print()
    print(table.render())

    fractions = [row[3] for row in table.rows]
    assert all(f < 0.8 for f in fractions)
    assert fractions[-1] < fractions[0]  # sublinear scaling

    # Kernel timed: one indexed range query on the larger fleet.
    built = _build_fleet(200, seed=6)
    rng = random.Random(1)
    polygon = polygon_query_workload(built.network, rng, 1,
                                     side_miles=(1.5, 1.5))[0]
    t = built.end_time

    def query_once():
        stats = SearchStats()
        return built.database.range_query(polygon, t, stats)

    answer = benchmark(query_once)
    assert answer.examined < 200
