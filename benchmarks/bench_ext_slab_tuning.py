"""E19: time-slab granularity tuning (§4.2's deferred performance study).

Sweeps the o-plane slab width and regenerates the trade-off table:
narrow slabs examine few candidates but cost more boxes per update;
wide slabs invert that.  Exactness is invariant — the may-sets are
identical at every width — so the knob is purely a performance choice.
"""

import random

from repro.experiments.index_tuning import table_slab_tuning
from repro.experiments.indexing import _build_fleet
from repro.index.timespace import TimeSpaceIndex


def test_slab_tuning(benchmark):
    table = table_slab_tuning(num_objects=120, num_queries=15)
    print()
    print(table.render())

    candidates = [row[3] for row in table.rows]
    boxes_per_update = [row[2] for row in table.rows]
    may_sizes = {row[5] for row in table.rows}
    # Narrower slabs examine no more candidates than wider ones...
    assert candidates[0] <= candidates[-1]
    # ...at the price of more maintenance per update.
    assert boxes_per_update[0] > boxes_per_update[-1]
    # Exactness is independent of granularity.
    assert len(may_sizes) == 1

    built = _build_fleet(80, seed=61)
    planes = {
        object_id: built.database.oplane_of(object_id)
        for object_id in built.database.object_ids()
    }
    benchmark(
        lambda: TimeSpaceIndex.bulk_build(planes, slab_minutes=2.5)
    )
