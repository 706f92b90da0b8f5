"""E12: index maintenance on position updates (§4.2).

"The index is updated whenever a position-update is received from a
moving object o: ... the id of o is removed from the 3-dimensional
rectangles ... and it is inserted in the 3-dimensional rectangles that
intersect [the new o-plane]."  Measures the cost of that swap and
checks the tree survives a full fleet run with invariants intact.
"""

from repro.experiments.indexing import _build_fleet, experiment_index_maintenance


def test_index_maintenance(benchmark):
    table = experiment_index_maintenance(num_objects=150, seed=13)
    print()
    print(table.render())

    assert table.row_by_key("objects indexed")[1] == 150
    removed = table.row_by_key("boxes removed per swap")[1]
    inserted = table.row_by_key("boxes inserted per swap")[1]
    assert removed == inserted > 0
    assert table.row_by_key("updates processed")[1] > 0

    # Kernel timed: one o-plane swap on a live index.
    built = _build_fleet(100, seed=14, maintained=True)
    index = built.database._index
    object_id = built.database.object_ids()[0]
    plane = built.database.oplane_of(object_id)

    def swap_once():
        return index.replace(object_id, plane, force=True)

    stats = benchmark(swap_once)
    assert stats.boxes_inserted > 0
    index.tree.check_invariants()
