"""Unit tests for repro.index.rtree."""

import random

import pytest

from repro.errors import GeometryError, IndexError_
from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree, SearchStats


def box(x, y, t, dx=1.0, dy=1.0, dt=1.0):
    return Box3D(x, y, t, x + dx, y + dy, t + dt)


class TestConstruction:
    def test_fanout_validation(self):
        with pytest.raises(IndexError_):
            RTree(max_entries=1)
        with pytest.raises(IndexError_):
            RTree(max_entries=8, min_entries=5)
        with pytest.raises(IndexError_):
            RTree(max_entries=8, min_entries=0)

    @pytest.mark.parametrize("tuning", [
        {"max_entries": "8"}, {"max_entries": 8.0}, {"max_entries": True},
        {"min_entries": 1.5}, {"min_entries": "3"}, {"min_entries": True},
        {"max_entries": float("nan")}, {"min_entries": None},
    ])
    def test_fanout_must_be_an_int(self, tuning):
        with pytest.raises(IndexError_, match="must be an int"):
            RTree(**tuning)
        with pytest.raises(IndexError_, match="must be an int"):
            RTree.bulk_load([(box(0, 0, 0), "a")], **tuning)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search(box(0, 0, 0)) == []


class TestInsertSearch:
    def test_single_entry(self):
        tree = RTree()
        tree.insert(box(0, 0, 0), "a")
        assert len(tree) == 1
        assert tree.search(box(0.5, 0.5, 0.5, 0.1, 0.1, 0.1)) == ["a"]
        assert tree.search(box(5, 5, 5)) == []

    def test_split_preserves_entries(self):
        tree = RTree(max_entries=4, min_entries=2)
        for i in range(20):
            tree.insert(box(float(i * 2), 0, 0), f"e{i}")
        assert len(tree) == 20
        assert tree.height > 1
        tree.check_invariants()
        # Every entry still findable.
        for i in range(20):
            hits = tree.search(box(float(i * 2), 0, 0, 0.5, 0.5, 0.5))
            assert f"e{i}" in hits

    def test_search_window_multiple_hits(self):
        tree = RTree()
        for i in range(10):
            tree.insert(box(float(i), 0, 0), i)
        hits = tree.search(Box3D(2.0, 0.0, 0.0, 5.0, 1.0, 1.0))
        assert set(hits) == {1, 2, 3, 4, 5}

    def test_duplicate_payload_multiple_boxes(self):
        tree = RTree()
        tree.insert(box(0, 0, 0), "obj")
        tree.insert(box(10, 0, 0), "obj")
        assert len(tree) == 2
        assert tree.search(Box3D(-1, -1, -1, 20, 2, 2)) == ["obj", "obj"]

    def test_degenerate_boxes_indexed(self):
        """Zero-volume boxes (flat uncertainty strips) must work."""
        tree = RTree(max_entries=4, min_entries=2)
        for i in range(30):
            tree.insert(Box3D(float(i), 0.0, 0.0, float(i) + 1, 0.0, 5.0), i)
        tree.check_invariants()
        hits = tree.search(Box3D(10.5, 0.0, 2.0, 10.5, 0.0, 2.0))
        assert 10 in hits

    def test_search_at_time(self):
        tree = RTree()
        tree.insert(Box3D(0, 0, 0, 1, 1, 10), "early")
        tree.insert(Box3D(0, 0, 20, 1, 1, 30), "late")
        assert tree.search_at_time(0, 0, 1, 1, 5.0) == ["early"]
        assert tree.search_at_time(0, 0, 1, 1, 25.0) == ["late"]

    def test_search_stats(self):
        tree = RTree(max_entries=4, min_entries=2)
        for i in range(50):
            tree.insert(box(float(i), 0, 0), i)
        stats = SearchStats()
        tree.search(box(3.0, 0, 0, 0.5, 0.5, 0.5), stats)
        assert stats.nodes_visited >= 1
        assert stats.entries_tested > 0
        assert stats.results >= 1
        # Point-ish query should not visit the whole tree.
        assert stats.entries_tested < 50 + tree.node_count()


class TestDelete:
    def test_delete_exact(self):
        tree = RTree()
        b = box(0, 0, 0)
        tree.insert(b, "a")
        assert tree.delete(b, "a")
        assert len(tree) == 0
        assert not tree.delete(b, "a")

    def test_delete_requires_exact_match(self):
        tree = RTree()
        tree.insert(box(0, 0, 0), "a")
        assert not tree.delete(box(0, 0, 0, 2.0), "a")
        assert not tree.delete(box(0, 0, 0), "b")
        assert len(tree) == 1

    def test_delete_with_condense(self):
        tree = RTree(max_entries=4, min_entries=2)
        boxes = [box(float(i), 0, 0) for i in range(25)]
        for i, b in enumerate(boxes):
            tree.insert(b, i)
        for i in range(0, 25, 2):
            assert tree.delete(boxes[i], i)
        tree.check_invariants()
        assert len(tree) == 12
        for i in range(1, 25, 2):
            assert i in tree.search(boxes[i])

    def test_delete_payload_all_boxes(self):
        tree = RTree(max_entries=4, min_entries=2)
        for i in range(10):
            tree.insert(box(float(i), 0, 0), "keep" if i % 2 else "drop")
        removed = tree.delete_payload("drop")
        assert removed == 5
        assert len(tree) == 5
        tree.check_invariants()
        hits = tree.search(Box3D(-1, -1, -1, 20, 2, 2))
        assert set(hits) == {"keep"}

    def test_delete_to_empty_and_reuse(self):
        tree = RTree(max_entries=4, min_entries=2)
        boxes = [box(float(i), float(i), 0) for i in range(12)]
        for i, b in enumerate(boxes):
            tree.insert(b, i)
        for i, b in enumerate(boxes):
            assert tree.delete(b, i)
        assert len(tree) == 0
        tree.insert(box(0, 0, 0), "fresh")
        assert tree.search(box(0, 0, 0)) == ["fresh"]
        tree.check_invariants()


class TestNonFiniteBoxes:
    """A stored box must stay deletable: ``_find_leaf`` descends only
    covers that contain it, and no comparison admits NaN.  So a NaN box
    never reaches the tree — it cannot be built."""

    @pytest.mark.parametrize("axis", range(6))
    def test_nan_box_cannot_be_built(self, axis):
        coords = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        coords[axis] = float("nan")
        with pytest.raises(GeometryError):
            Box3D(*coords)

    def test_extreme_boxes_stay_deletable(self):
        inf = float("inf")
        odd = [
            Box3D(-inf, 0.0, 0.0, inf, 1.0, 1.0),
            Box3D(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0),
            Box3D(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            Box3D(-1e308, 1e308, 5.0, 1e308, 1e308, inf),
            box(2.0, 2.0, 2.0, 0.0, 0.0, 0.0),
        ]
        tree = RTree(max_entries=4, min_entries=2)
        items = [(b, i) for i, b in enumerate(odd * 4)]
        for b, i in items:
            tree.insert(b, i)
        tree.check_invariants()
        for b, i in items:
            assert tree.delete(b, i), (b, i)
        assert len(tree) == 0


class TestRandomized:
    def test_matches_bruteforce(self):
        rng = random.Random(99)
        tree = RTree(max_entries=6, min_entries=2)
        entries = []
        for i in range(200):
            b = box(
                rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0, 50),
                rng.uniform(0.1, 5), rng.uniform(0.1, 5), rng.uniform(0.1, 5),
            )
            tree.insert(b, i)
            entries.append((b, i))
        tree.check_invariants()
        for _ in range(30):
            window = box(
                rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0, 50),
                rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(1, 10),
            )
            expected = {i for b, i in entries if b.intersects(window)}
            assert set(tree.search(window)) == expected

    def test_interleaved_insert_delete(self):
        rng = random.Random(7)
        tree = RTree(max_entries=5, min_entries=2)
        alive = {}
        counter = 0
        for _ in range(400):
            if alive and rng.random() < 0.4:
                key = rng.choice(list(alive))
                assert tree.delete(alive.pop(key), key)
            else:
                b = box(rng.uniform(0, 30), rng.uniform(0, 30),
                        rng.uniform(0, 30))
                tree.insert(b, counter)
                alive[counter] = b
                counter += 1
        tree.check_invariants()
        assert len(tree) == len(alive)
        window = Box3D(-1, -1, -1, 31, 31, 31)
        assert set(tree.search(window)) == set(alive)


def find_leaf_by_intersection(node, target, payload):
    """``RTree._find_leaf`` as it was: every cover *meeting* the box."""
    if node.is_leaf:
        return node if any(
            entry.payload == payload and entry.box == target
            for entry in node.entries) else None
    for entry in node.entries:
        if entry.box.intersects(target):
            found = find_leaf_by_intersection(entry.child, target, payload)
            if found is not None:
                return found
    return None


class TestFindLeaf:
    """Delete descends only covers that contain the box: the leaf it
    reaches is the one the wider descent reached."""

    def assert_same_leaf(self, tree, target, payload):
        expected = find_leaf_by_intersection(tree._root, target, payload)
        assert expected is not None
        assert tree._find_leaf(target, payload) is expected
        return expected

    def test_duplicate_entry_in_two_leaves(self):
        """STR packing cuts a run of equal ``(box, payload)`` pairs
        across leaves: delete takes the first in entry order, twice."""
        twin = box(5, 5, 5)
        items = [(box(float(i), 0, 0), i) for i in range(3)]
        items += [(twin, "twin")] * 4 + [(box(9, 9, 9), "far")]
        tree = RTree.bulk_load(items, max_entries=2, min_entries=1)
        leaves = {id(self.assert_same_leaf(tree, twin, "twin"))}
        holders = set()
        stack = [tree._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if any(e.payload == "twin" for e in node.entries):
                    holders.add(id(node))
            else:
                stack.extend(e.child for e in node.entries)
        assert len(holders) >= 2 and leaves <= holders
        for remaining in (3, 2, 1, 0):
            self.assert_same_leaf(tree, twin, "twin")
            assert tree.delete(twin, "twin")
            tree.check_invariants()
            assert tree.search(twin).count("twin") == remaining
        assert not tree.delete(twin, "twin")

    @pytest.mark.parametrize("fanout", [(4, 2), (8, 3)])
    def test_same_leaf_on_an_adversarial_tree(self, fanout):
        from tests.index.test_rtree_structure import adversarial_boxes

        boxes = adversarial_boxes(500, seed=6)
        tree = RTree(max_entries=fanout[0], min_entries=fanout[1])
        for i, b in enumerate(boxes):
            tree.insert(b, i % 7)       # equal boxes under equal payloads
        rng = random.Random(8)
        for i in rng.sample(range(len(boxes)), 200):
            self.assert_same_leaf(tree, boxes[i], i % 7)
            assert tree.delete(boxes[i], i % 7)
        tree.check_invariants()
        assert len(tree) == 300
        assert tree._find_leaf(box(99, 99, 99), 0) is None
