"""Stateful differential test: the R-tree against its frozen predecessor.

A hypothesis ``RuleBasedStateMachine`` drives one random sequence of
inserts, duplicate ``(box, payload)`` inserts, exact deletes (present and
absent) and ``delete_payload`` calls into the live
:class:`repro.index.rtree.RTree` and into ``tests/oracle/rtree_reference.py``
(the tree from before covers cached their extent and measure), at
fanouts (4, 2), (8, 3) and (16, 6).  The boxes are rich in ties, ``-0.0``
beside ``0.0`` and extents that are zero on one, two or all three axes.

After every step the two trees must be the same node for node: equal
height and node count, and, level by level in entry order, every entry's
box equal as packed bytes (so ``-0.0`` is not ``0.0``) and every leaf's
payloads in the same order.  The live tree also passes
``check_invariants``, which holds each cover's cached extent and measure
to its box.
"""

from __future__ import annotations

import struct

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree
from tests.conftest import examples
from tests.oracle import rtree_reference as ref

FANOUTS = ((4, 2), (8, 3), (16, 6))

_pack = struct.Struct("6d").pack

#: Lattice boxes tie in every comparison ChooseLeaf and the split make.
lattice = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5])
lattice_extents = st.sampled_from([0.0, 0.0, 0.5, 1.0])
floats = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
float_extents = st.floats(min_value=0.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw) -> Box3D:
    """Mostly lattice boxes, some free ones; a zero extent keeps the low
    corner's sign, so ``-0.0`` reaches the high corner too."""
    on_lattice = draw(st.integers(0, 3)) > 0
    coordinates, extents = ((lattice, lattice_extents) if on_lattice
                            else (floats, float_extents))
    lo = [draw(coordinates) for _ in range(3)]
    hi = [low + extent if extent else low
          for low, extent in ((low, draw(extents)) for low in lo)]
    return Box3D(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2])


payloads = st.integers(0, 11)


def shape(tree) -> list[list[tuple[bool, list[bytes], list]]]:
    """Per level, root first: each node's leaf flag, packed entry boxes
    in entry order and (for leaves) payloads in entry order."""
    levels = []
    level = [tree._root]
    while level:
        levels.append([
            (node.is_leaf,
             [_pack(e.box.min_x, e.box.min_y, e.box.min_t,
                    e.box.max_x, e.box.max_y, e.box.max_t)
              for e in node.entries],
             [e.payload for e in node.entries] if node.is_leaf else [])
            for node in level
        ])
        if level[0].is_leaf:
            break
        level = [e.child for node in level for e in node.entries]
    return levels


class RTreeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.live = RTree()
        self.reference = ref.RTree()
        #: Every ``(box, payload)`` inserted and not yet deleted.
        self.stored: list[tuple[Box3D, int]] = []

    @initialize(fanout=st.sampled_from(FANOUTS))
    def build(self, fanout: tuple[int, int]) -> None:
        self.live = RTree(*fanout)
        self.reference = ref.RTree(*fanout)

    @rule(box=boxes(), payload=payloads)
    def insert(self, box: Box3D, payload: int) -> None:
        self.live.insert(box, payload)
        self.reference.insert(box, payload)
        self.stored.append((box, payload))

    @rule(items=st.lists(st.tuples(boxes(), payloads),
                         min_size=5, max_size=40))
    def insert_many(self, items: list[tuple[Box3D, int]]) -> None:
        """Enough entries between checks to split internal nodes."""
        for box, payload in items:
            self.insert(box, payload)

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def insert_duplicate(self, data) -> None:
        box, payload = data.draw(st.sampled_from(self.stored))
        self.insert(box, payload)

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def delete(self, data) -> None:
        box, payload = data.draw(st.sampled_from(self.stored))
        assert self.live.delete(box, payload)
        assert self.reference.delete(box, payload)
        self.stored.remove((box, payload))

    @rule(box=boxes(), payload=payloads)
    def delete_absent(self, box: Box3D, payload: int) -> None:
        present = (box, payload) in self.stored
        assert self.live.delete(box, payload) == present
        assert self.reference.delete(box, payload) == present
        if present:
            self.stored.remove((box, payload))

    @rule(payload=payloads)
    def delete_payload(self, payload: int) -> None:
        expected = sum(1 for _, p in self.stored if p == payload)
        assert self.live.delete_payload(payload) == expected
        assert self.reference.delete_payload(payload) == expected
        self.stored = [item for item in self.stored if item[1] != payload]

    @invariant()
    def same_tree(self) -> None:
        live, reference = self.live, self.reference
        assert len(live) == len(reference) == len(self.stored)
        assert live.height == reference.height
        assert live.node_count() == reference.node_count()
        assert shape(live) == shape(reference)
        live.check_invariants()


TestRTreeDifferential = RTreeMachine.TestCase
TestRTreeDifferential.settings = settings(
    max_examples=examples(60), stateful_step_count=60, deadline=None,
    suppress_health_check=list(HealthCheck),
)
