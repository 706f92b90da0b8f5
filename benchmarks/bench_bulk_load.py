"""Micro-benchmark: STR bulk loading vs. incremental R-tree builds.

Supporting evidence for cold-starting a time-space index over an
existing fleet (e.g. after loading a snapshot): packing builds an
order of magnitude faster than one-by-one insertion, with fewer nodes
and comparable per-query work.
"""

import random

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree, SearchStats


def _items(count, seed):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x, y, t = rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)
        out.append(
            (Box3D(x, y, t, x + rng.uniform(0.1, 3), y + rng.uniform(0.1, 3),
                   t + rng.uniform(0.1, 3)), i)
        )
    return out


ITEMS = _items(1500, seed=21)


def test_bench_bulk_load(benchmark):
    tree = benchmark(lambda: RTree.bulk_load(ITEMS))
    assert len(tree) == len(ITEMS)
    tree.check_invariants()

    # Quality evidence: the packed tree uses fewer nodes and answers
    # queries with comparable work (packing trades perfect locality for
    # full fill factors; work lands within ~25% either way).
    grown = RTree()
    for box, payload in ITEMS:
        grown.insert(box, payload)
    rng = random.Random(2)
    packed_work = grown_work = 0
    for _ in range(40):
        x, y, t = rng.uniform(0, 95), rng.uniform(0, 95), rng.uniform(0, 95)
        window = Box3D(x, y, t, x + 4, y + 4, t + 4)
        sp, sg = SearchStats(), SearchStats()
        tree.search(window, sp)
        grown.search(window, sg)
        packed_work += sp.entries_tested
        grown_work += sg.entries_tested
    print(f"\nentries tested over 40 queries: packed {packed_work}, "
          f"incremental {grown_work}; nodes {tree.node_count()} vs "
          f"{grown.node_count()}")
    assert tree.node_count() < grown.node_count()
    assert packed_work <= grown_work * 1.3


def test_bench_incremental_build(benchmark):
    def build():
        tree = RTree()
        for box, payload in ITEMS:
            tree.insert(box, payload)
        return tree

    tree = benchmark(build)
    assert len(tree) == len(ITEMS)
