"""Time-space indexing: o-planes, slab runs, and sublinear retrieval.

Shows the §4 machinery directly: an o-plane built from a position
attribute and its policy bounds, its decomposition into R-tree slab
runs (one box per run of slabs that share a rectangle), the §4.2 swap on a position update, and the candidates-examined
advantage over a linear scan.

Run:  python examples/indexing_demo.py
"""

import random

from repro.experiments.indexing import _build_fleet
from repro.index.rtree import SearchStats
from repro.workloads.query_workloads import polygon_query_workload


def main() -> None:
    print("Building a 300-vehicle fleet, then STR-loading its time-space index...")
    built = _build_fleet(300, seed=5, duration=10.0)
    database = built.database
    index = database._index
    t = built.end_time

    print(f"  objects indexed  : {len(index)}")
    print(f"  slab runs stored : {index.total_boxes()}")
    print(f"  R-tree height    : {index.tree.height}, "
          f"nodes: {index.tree.node_count()}")
    print()

    # --- One object's o-plane ----------------------------------------
    object_id = database.object_ids()[0]
    plane = database.oplane_of(object_id)
    runs = plane.runs(slab_minutes=5.0)
    print(f"o-plane of {object_id}: starts at t = {plane.start_time:.1f}, "
          f"horizon {plane.horizon:.0f} min, {len(runs)} slab runs")
    for box in runs[:4]:
        print(f"  t in [{box.min_t:6.1f}, {box.max_t:6.1f}]  "
              f"x in [{box.min_x:6.2f}, {box.max_x:6.2f}]  "
              f"y in [{box.min_y:6.2f}, {box.max_y:6.2f}]")
    print("  ...")
    print()

    # --- Query cost: index vs. linear scan ---------------------------
    rng = random.Random(9)
    polygons = polygon_query_workload(built.network, rng, 25,
                                      side_miles=(1.0, 2.0))
    examined = 0
    found = 0
    for polygon in polygons:
        stats = SearchStats()
        answer = database.range_query(polygon, t, stats)
        examined += answer.examined
        found += len(answer.may)
    print(f"25 range queries over {len(database)} objects:")
    print(f"  index: {examined / 25:.1f} candidates examined per query "
          f"({examined / 25 / len(database):.1%} of the fleet)")
    print(f"  scan : {len(database)} per query (100%), by definition")
    print(f"  average answer size: {found / 25:.1f} objects")
    print()

    # --- The §4.2 swap on a position update --------------------------
    swap = index.replace(object_id, plane, force=True)
    print(f"Position update for {object_id}: removed "
          f"{swap.boxes_removed} old slab runs, inserted "
          f"{swap.boxes_inserted} new ones — no other object touched.")
    index.tree.check_invariants()
    print("R-tree invariants verified.")


if __name__ == "__main__":
    main()
