"""Differential test: an STR-loaded fleet index against the swapped one.

The indexing experiments simulate their fleets index-free and STR-load
the final o-planes once; only E12 maintains its index through the §4.2
swap on every update.  Both must hold the same slab boxes, so every
query the experiments ask at ``end_time`` sees the same candidates and
the same may/must answer.  Two fleets are built from one seed, one each
way, and compared box for box and query for query.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.indexing import _build_fleet
from repro.workloads.query_workloads import polygon_query_workload

from tests.conftest import examples
from tests.index.test_lazy_tree import count_tree_work


@settings(max_examples=examples(20))
@given(
    num_objects=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    duration=st.sampled_from([2.0, 5.0, 10.0]),
    query_seed=st.integers(min_value=0, max_value=2**16),
    side=st.floats(min_value=0.25, max_value=4.0),
)
def test_deferred_build_answers_as_the_swap(num_objects, seed, duration,
                                            query_seed, side):
    swapped = _build_fleet(num_objects, seed, maintained=True,
                           duration=duration)
    packed = _build_fleet(num_objects, seed, duration=duration)
    swapped_index = swapped.database._index
    packed_index = packed.database._index
    assert packed_index.content_digest() == swapped_index.content_digest()
    swapped_index.tree.check_invariants()
    packed_index.tree.check_invariants()

    polygons = polygon_query_workload(
        packed.network, random.Random(query_seed), 6,
        side_miles=(side / 4.0, side),
    )
    t = packed.end_time
    for polygon in polygons:
        want = swapped.database.range_query(polygon, t)
        got = packed.database.range_query(polygon, t)
        assert (got.may, got.must, got.candidates, got.examined) == (
            want.may, want.must, want.candidates, want.examined)


def test_the_maintained_fleet_swaps_from_its_first_insert(monkeypatch):
    """E12's index has its tree before the fleet's first write: every
    update is the §4.2 swap, and nothing is bulk-loaded."""
    calls = count_tree_work(monkeypatch)
    built = _build_fleet(6, 3, maintained=True, duration=5.0)
    assert calls["bulk_load"] == 0
    assert calls["insert"] >= built.database._index.total_boxes() > 0
