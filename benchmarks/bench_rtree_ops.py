"""Micro-benchmarks of the R-tree substrate: insert, search, delete.

Not a paper artefact — supporting evidence that the index's primitive
operations scale sanely, which the E7/E12 experiments build on.
"""

import random

import pytest

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree


def _random_boxes(count, seed):
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        x, y, t = rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)
        boxes.append(
            Box3D(x, y, t, x + rng.uniform(0.1, 3), y + rng.uniform(0.1, 3),
                  t + rng.uniform(0.1, 3))
        )
    return boxes


def _load_tree(count=2000, seed=1):
    tree = RTree()
    for i, box in enumerate(_random_boxes(count, seed=seed)):
        tree.insert(box, i)
    return tree


@pytest.fixture(scope="module")
def loaded_tree():
    return _load_tree()


def test_bench_insert(benchmark):
    boxes = _random_boxes(500, seed=2)

    def build():
        tree = RTree()
        for i, box in enumerate(boxes):
            tree.insert(box, i)
        return tree

    tree = benchmark(build)
    assert len(tree) == 500


def test_bench_search(benchmark, loaded_tree):
    windows = _random_boxes(100, seed=3)

    def search_all():
        return sum(len(loaded_tree.search(w)) for w in windows)

    total = benchmark(search_all)
    assert total > 0


def test_bench_point_search_sublinear(benchmark, loaded_tree):
    """A point query touches a small fraction of the 2000 entries."""
    from repro.index.rtree import SearchStats

    window = Box3D(50, 50, 50, 51, 51, 51)

    def search_once():
        stats = SearchStats()
        loaded_tree.search(window, stats)
        return stats

    stats = benchmark(search_once)
    assert stats.entries_tested < len(loaded_tree)


def test_bench_delete_payload(benchmark):
    boxes = _random_boxes(400, seed=4)

    def build_and_strip():
        tree = RTree()
        for i, box in enumerate(boxes):
            tree.insert(box, i % 10)  # 10 payload groups
        removed = tree.delete_payload(0)
        return tree, removed

    tree, removed = benchmark(build_and_strip)
    assert removed == 40
    tree.check_invariants()
