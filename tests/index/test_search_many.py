"""Unit tests for the R-tree multi-search path.

``RTree.search_many`` and ``TimeSpaceIndex.candidates_at_many`` must be
set-equivalent to their one-at-a-time counterparts on the same boxes —
the batch query engine's correctness rests on that — while doing
strictly less traversal work than issuing the searches separately.
"""

import math
import random

import pytest

from repro.core.bounds import delayed_linear_bounds
from repro.core.position import PositionAttribute
from repro.geometry.bbox import Box3D, Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import RTree, SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import observe
from repro.routes.generators import straight_route
from tests.index.test_rtree_structure import adversarial_boxes

C = 5.0


def random_box(rng, extent=100.0, max_side=10.0):
    x = rng.uniform(0.0, extent)
    y = rng.uniform(0.0, extent)
    t = rng.uniform(0.0, extent)
    return Box3D(
        x, y, t,
        x + rng.uniform(0.1, max_side),
        y + rng.uniform(0.1, max_side),
        t + rng.uniform(0.1, max_side),
    )


def populated_tree(rng, count=150):
    tree = RTree(max_entries=8, min_entries=3)
    for i in range(count):
        tree.insert(random_box(rng), f"obj-{i}")
    return tree


def plane_for(route, speed=1.0, starttime=0.0, x=0.0, horizon=20.0):
    attr = PositionAttribute(
        starttime=starttime, route_id=route.route_id, start_x=x, start_y=0.0,
        direction=0, speed=speed, policy="dl",
    )
    return OPlane(attr, route, delayed_linear_bounds(speed, 1.5, C), horizon)


class TestSearchMany:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_matches_single_searches(self, seed):
        rng = random.Random(seed)
        tree = populated_tree(rng)
        boxes = [random_box(rng, max_side=25.0) for _ in range(40)]
        many = tree.search_many(boxes)
        assert len(many) == len(boxes)
        for box, found in zip(boxes, many):
            assert set(found) == set(tree.search(box))

    def test_empty_batch(self):
        tree = populated_tree(random.Random(3))
        assert tree.search_many([]) == []

    def test_empty_tree(self):
        tree = RTree()
        boxes = [random_box(random.Random(5)) for _ in range(4)]
        assert tree.search_many(boxes) == [[], [], [], []]

    def test_duplicate_boxes_answered_per_slot(self):
        rng = random.Random(11)
        tree = populated_tree(rng)
        box = random_box(rng, max_side=40.0)
        first, second = tree.search_many([box, box])
        assert set(first) == set(second) == set(tree.search(box))

    def test_observes_each_windows_result_count(self):
        """``index_search_results`` is a per-search histogram: a batch of
        40 windows is 40 observations, as 40 single searches are."""
        rng = random.Random(5)
        tree = populated_tree(rng)
        boxes = [random_box(rng, max_side=25.0) for _ in range(40)]
        with observe(registry=True) as p:
            many = tree.search_many(boxes)
            batched = p.registry.get("index_search_results")
            assert (batched.count, batched.sum) == (
                40, sum(len(found) for found in many))
            for box in boxes:
                tree.search(box)
            assert (batched.count, batched.sum) == (80, 2 * sum(
                len(found) for found in many))

    def test_visits_fewer_nodes_than_separate_searches(self):
        rng = random.Random(13)
        tree = populated_tree(rng, count=300)
        boxes = [random_box(rng, max_side=30.0) for _ in range(30)]
        separate = SearchStats()
        separate_results = sum(
            len(tree.search(box, separate)) for box in boxes
        )
        shared = SearchStats()
        shared_results = sum(len(found) for found in
                             tree.search_many(boxes, shared))
        assert shared_results == separate_results
        assert shared.nodes_visited < separate.nodes_visited
        # Each node is visited at most once per batch.
        assert shared.nodes_visited <= len(tree)


class TestCandidatesAtMany:
    def test_matches_candidates_at(self):
        route = straight_route(40.0, "h1")
        index = TimeSpaceIndex(slab_minutes=5.0)
        for i in range(8):
            index.insert(f"o{i}", plane_for(route, x=5.0 * i,
                                            speed=0.2 + 0.1 * i))
        rng = random.Random(17)
        windows = []
        for _ in range(20):
            x = rng.uniform(0.0, 40.0)
            windows.append((
                Rect2D(x, -1.0, x + rng.uniform(1.0, 10.0), 1.0),
                rng.uniform(0.0, 15.0),
            ))
        many = index.candidates_at_many(windows)
        assert many == [index.candidates_at(r, t) for r, t in windows]

    def test_stats_aggregated_over_batch(self):
        route = straight_route(40.0, "h1")
        index = TimeSpaceIndex(slab_minutes=5.0)
        for i in range(4):
            index.insert(f"o{i}", plane_for(route, x=10.0 * i))
        stats = SearchStats()
        found = index.candidates_at_many(
            [(Rect2D(0.0, -1.0, 40.0, 1.0), 2.0),
             (Rect2D(0.0, -1.0, 40.0, 1.0), 2.0)], stats,
        )
        assert found[0] == found[1] == {"o0", "o1", "o2", "o3"}
        assert stats.nodes_visited > 0
        assert stats.results >= 8


def _indexes():
    """One of each index class, over the same four o-planes."""
    from repro.index.scan import LinearScanIndex

    return {
        "timespace": TimeSpaceIndex(slab_minutes=5.0),
        "scan": LinearScanIndex(),
    }


class TestStatsAccumulate:
    """``SearchStats`` has one contract: every search adds to it."""

    @pytest.mark.parametrize("name", sorted(_indexes()))
    def test_results_equal_batched_and_one_at_a_time(self, name):
        index = _indexes()[name]
        route = straight_route(40.0, "h1")
        for i in range(4):
            index.insert(f"o{i}", plane_for(route, x=10.0 * i))
        windows = [(Rect2D(0.0, -1.0, 12.0, 1.0), 2.0),
                   (Rect2D(8.0, -1.0, 40.0, 1.0), 4.0),
                   (Rect2D(50.0, -1.0, 60.0, 1.0), 2.0)]
        batched, looped = SearchStats(), SearchStats()
        many = index.candidates_at_many(windows, batched)
        singly = [index.candidates_at(region, t, looped)
                  for region, t in windows]
        assert many == singly
        assert batched.results == looped.results > 0
        if "scan" in name:
            # A scan's multi-search is the loop: all three fields agree.
            assert batched == looped
        # A second pass adds as much again on every field.
        again = SearchStats(batched.nodes_visited, batched.entries_tested,
                            batched.results)
        index.candidates_at_many(windows, again)
        assert (again.nodes_visited, again.entries_tested, again.results) == (
            2 * batched.nodes_visited, 2 * batched.entries_tested,
            2 * batched.results)

    def test_single_search_adds_to_results(self):
        rng = random.Random(3)
        tree = populated_tree(rng)
        stats = SearchStats()
        everything = Box3D(-1.0, -1.0, -1.0, 200.0, 200.0, 200.0)
        first = len(tree.search(everything, stats))
        second = len(tree.search(everything, stats))
        assert stats.results == first + second == 2 * len(tree)


# ----------------------------------------------------------------------
# Float-local search: same results, same order, same work
# ----------------------------------------------------------------------
#
# ``search`` / ``search_many`` compare unpacked floats instead of calling
# ``Box3D.intersects`` per pair.  The traversals below are the loops as
# they were, ``Box3D.intersects`` and all: the tree must return their
# results in their order with their work counts, and the result multiset
# of a brute-force scan over ``items()``.

def reference_search(tree, box):
    stats, results = SearchStats(), []
    stack = [tree._root] if len(tree) else []
    while stack:
        node = stack.pop()
        stats.nodes_visited += 1
        for entry in node.entries:
            stats.entries_tested += 1
            if not entry.box.intersects(box):
                continue
            if node.is_leaf:
                results.append(entry.payload)
            else:
                stack.append(entry.child)
    stats.results = len(results)
    return results, stats


def reference_search_many(tree, boxes):
    stats, results = SearchStats(), [[] for _ in boxes]
    order = sorted(range(len(boxes)), key=lambda i: (
        boxes[i].min_t, boxes[i].min_x, boxes[i].min_y))
    stack = [(tree._root, order)] if len(tree) and boxes else []
    while stack:
        node, active = stack.pop()
        stats.nodes_visited += 1
        for entry in node.entries:
            stats.entries_tested += 1
            matching = [i for i in active if entry.box.intersects(boxes[i])]
            if not matching:
                continue
            if node.is_leaf:
                for i in matching:
                    results[i].append(entry.payload)
            else:
                stack.append((entry.child, matching))
    stats.results = sum(map(len, results))
    return results, stats


def touching_queries(tree, rng, count):
    """Windows that meet a stored box on a face, an edge or a corner,
    zero-extent windows, and windows at ``-0.0``."""
    stored = [box for box, _ in tree.items()]
    queries = [Box3D(-0.0, -0.0, -0.0, 0.0, 0.0, 0.0),
               Box3D(-0.0, -0.0, -0.0, 10.0, 10.0, 120.0),
               Box3D(-5.0, -5.0, -5.0, -0.0, -0.0, -0.0)]
    for _ in range(count):
        box = rng.choice(stored)
        kind = rng.randrange(5)
        if kind == 0:      # shares the max_x face
            queries.append(Box3D(box.max_x, box.min_y, box.min_t,
                                 box.max_x + 1.0, box.max_y, box.max_t))
        elif kind == 1:    # shares the min_t face, from below
            queries.append(Box3D(box.min_x, box.min_y, box.min_t - 2.0,
                                 box.max_x, box.max_y, box.min_t))
        elif kind == 2:    # a point on a corner
            queries.append(Box3D(box.min_x, box.max_y, box.max_t,
                                 box.min_x, box.max_y, box.max_t))
        elif kind == 3:    # a planar window at one instant
            queries.append(Box3D(box.min_x - 1.0, box.min_y - 1.0, box.max_t,
                                 box.max_x + 1.0, box.max_y + 1.0, box.max_t))
        else:              # just past a face: must miss that box
            queries.append(Box3D(math.nextafter(box.max_x, math.inf),
                                 box.min_y, box.min_t,
                                 box.max_x + 1.0, box.max_y, box.max_t))
    return queries


@pytest.mark.parametrize("fanout", [(4, 2), (8, 3)])
class TestFloatLocalSearch:
    def tree_and_queries(self, fanout):
        tree = RTree(max_entries=fanout[0], min_entries=fanout[1])
        for i, box in enumerate(adversarial_boxes(600, seed=24)):
            tree.insert(box, i % 200)      # payloads repeat, as ids do
        return tree, touching_queries(tree, random.Random(5), 120)

    def test_search_is_the_reference_traversal(self, fanout):
        tree, queries = self.tree_and_queries(fanout)
        items = list(tree.items())
        hits = 0
        for query in queries:
            stats = SearchStats()
            found = tree.search(query, stats)
            expected, expected_stats = reference_search(tree, query)
            assert found == expected
            assert stats == expected_stats
            assert sorted(found) == sorted(
                payload for box, payload in items if box.intersects(query))
            hits += len(found)
        assert hits > len(queries)

    def test_search_many_is_the_reference_traversal(self, fanout):
        tree, queries = self.tree_and_queries(fanout)
        items = list(tree.items())
        stats = SearchStats()
        found = tree.search_many(queries, stats)
        expected, expected_stats = reference_search_many(tree, queries)
        assert found == expected
        assert stats == expected_stats
        for query, payloads in zip(queries, found):
            assert sorted(payloads) == sorted(
                payload for box, payload in items if box.intersects(query))
