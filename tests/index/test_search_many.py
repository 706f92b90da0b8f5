"""Unit tests for the R-tree multi-search path.

``RTree.search_many`` and ``TimeSpaceIndex.candidates_at_many`` must be
set-equivalent to their one-at-a-time counterparts on the same boxes —
the batch query engine's correctness rests on that — while doing
strictly less traversal work than issuing the searches separately.
"""

import random

import pytest

from repro.core.bounds import delayed_linear_bounds
from repro.core.position import PositionAttribute
from repro.geometry.bbox import Box3D, Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import RTree, SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route

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
    from repro.shard import PartitionedIndex, uniform_grid_for

    def partitioned(inner):
        return PartitionedIndex(
            uniform_grid_for(Rect2D(0.0, -1.0, 40.0, 1.0), 2), inner)

    return {
        "timespace": TimeSpaceIndex(slab_minutes=5.0),
        "scan": LinearScanIndex(),
        "partitioned-timespace": partitioned(
            lambda: TimeSpaceIndex(slab_minutes=5.0)),
        "partitioned-scan": partitioned(LinearScanIndex),
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
