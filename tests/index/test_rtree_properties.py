"""Property-based tests for the R-tree (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree
from tests.conftest import examples

coords = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=20.0)


@st.composite
def boxes(draw):
    x, y, t = draw(coords), draw(coords), draw(coords)
    return Box3D(x, y, t, x + draw(extents), y + draw(extents),
                 t + draw(extents))


@settings(max_examples=examples(40), deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=60), boxes())
def test_search_matches_bruteforce(items, window):
    """For any insertion sequence, search equals brute force."""
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
    tree.check_invariants()
    expected = {i for i, b in enumerate(items) if b.intersects(window)}
    assert set(tree.search(window)) == expected


@settings(max_examples=examples(40), deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=40),
       st.lists(st.integers(min_value=0, max_value=39), max_size=20))
def test_delete_sequence_consistent(items, delete_order):
    """Deletions leave exactly the surviving entries findable."""
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
    alive = dict(enumerate(items))
    for key in delete_order:
        if key in alive:
            assert tree.delete(alive.pop(key), key)
    tree.check_invariants()
    assert len(tree) == len(alive)
    everything = Box3D(-1, -1, -1, 200, 200, 200)
    assert set(tree.search(everything)) == set(alive)


@settings(max_examples=examples(30), deadline=None)
@given(st.lists(boxes(), min_size=2, max_size=50))
def test_invariants_after_bulk_insert(items):
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
        tree.check_invariants()


# ----------------------------------------------------------------------
# Tight covers under generated insert / delete / delete_payload streams
# ----------------------------------------------------------------------

#: Few distinct values, so boxes tie, repeat, touch and degenerate to
#: slabs, lines and points; both zeros, so covers differ in sign only.
grid_coords = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0]),
    st.floats(min_value=0.0, max_value=10.0),
)


@st.composite
def grid_boxes(draw):
    (x0, x1), (y0, y1), (t0, t1) = (
        sorted((draw(grid_coords), draw(grid_coords))) for _ in range(3))
    return Box3D(x0, y0, t0, x1, y1, t1)


#: ``("insert", box, payload)`` | ``("delete", n)`` | ``("drop", payload)``.
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), grid_boxes(), st.integers(0, 5)),
    st.tuples(st.just("delete"), st.integers(0, 200)),
    st.tuples(st.just("drop"), st.integers(0, 5)),
), min_size=1, max_size=70)


class FullRefreshRTree(RTree):
    """Recomputes every cover up to the root after each change.

    ``RTree`` stops at the first cover that comes out bit-identical;
    this one never does, which is what the tree did before that exit.
    """

    @staticmethod
    def _refresh_cover(node):
        RTree._refresh_cover(node)
        return True


def structure(tree):
    """The tree node for node: boxes to the bit, entries in order."""
    def walk(node):
        return [
            (repr(entry.box),
             entry.payload if node.is_leaf else walk(entry.child))
            for entry in node.entries
        ]
    return walk(tree._root)


def content(items):
    """Sorted ``(coordinates, payload)``; like ``RTree.delete``'s match,
    the comparison does not tell ``-0.0`` from ``0.0``."""
    return sorted(
        ((box.min_x, box.min_y, box.min_t, box.max_x, box.max_y, box.max_t),
         payload)
        for box, payload in items
    )


@settings(max_examples=examples(120), deadline=None)
@given(operations, st.sampled_from([(4, 2), (8, 3)]))
def test_covers_stay_tight_and_the_early_exit_changes_nothing(ops, fanout):
    """After every operation: invariants hold (covers bit-exact), the
    content is the model's, and the tree equals, node for node, the one
    that refreshed every cover on the way to the root."""
    max_entries, min_entries = fanout
    tree = RTree(max_entries, min_entries)
    full = FullRefreshRTree(max_entries, min_entries)
    alive = []
    for op in ops:
        if op[0] == "insert":
            _, box, payload = op
            alive.append((box, payload))
            for each in (tree, full):
                each.insert(box, payload)
        elif op[0] == "delete" and alive:
            box, payload = alive.pop(op[1] % len(alive))
            for each in (tree, full):
                assert each.delete(box, payload)
        elif op[0] == "drop":
            gone = sum(1 for _, payload in alive if payload == op[1])
            alive = [item for item in alive if item[1] != op[1]]
            for each in (tree, full):
                assert each.delete_payload(op[1]) == gone
        tree.check_invariants()
        full.check_invariants()
        assert structure(tree) == structure(full)
        assert len(tree) == len(alive)
        assert content(tree.items()) == content(alive)
