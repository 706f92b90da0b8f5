"""Node-for-node structure pins for R-tree maintenance.

ChooseLeaf, the quadratic split and the covering-box refresh decide the
tree's *shape*, and E12's tree height/nodes and E19's ``entries
tested/query`` columns (hence the pinned report digest) depend on that
shape.  These tests pin it:
for a seeded insert / delete / reinsert sequence the height, node
count, content digest and a per-level digest of every node's boxes *in
entry order* must equal the values recorded when the maintenance code
still built a temporary ``Box3D`` per comparison.  Any change to a
comparison key, a tie-break or the sign of a zero shows up here.

The box stream is adversarial on purpose: lattice coordinates (ties in
every comparison), ``-0.0`` mixed with ``0.0`` (where ``min``/``max``
and hand-written comparisons could pick different operands) and slabs
that are degenerate on one, two or all three axes (zero volume, so the
margin term alone decides).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree

INSERTS = 3000
DELETES = 1000

#: ``(max_entries, min_entries) -> (height, node_count, content digest,
#: per-level digests root first)`` after the full sequence.
PINNED = {
    (4, 2): (
        7, 1583,
        "a5d52329f86435006fea4f29490ab101c00206c8d05aab1d599417d2314c3b63",
        ("a3aee7db2e0a80c6", "ae40e3843f50a4be", "0b5671b838b28b75",
         "85b62a6f61e485e2", "687624f5d48f4234", "1599ec6fa1218aca",
         "7dcae030e3276f03"),
    ),
    (8, 3): (
        5, 697,
        "a5d52329f86435006fea4f29490ab101c00206c8d05aab1d599417d2314c3b63",
        ("32cb39e0bd20c5bd", "3125ffc8dd63a4b6", "6448054ceb6d6c16",
         "b10fd06cda898a05", "da6abfaf32663f96"),
    ),
}


def adversarial_boxes(count: int, seed: int) -> list[Box3D]:
    """Boxes rich in ties, signed zeros and volume-degenerate slabs."""
    rng = random.Random(seed)
    lattice = [-0.0, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0]
    boxes = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4:
            # Lattice corners: equal coordinates everywhere.
            lo = [rng.choice(lattice) for _ in range(3)]
            extent = [rng.choice((0.0, 0.0, 0.25, 0.5, 2.5)) for _ in range(3)]
        elif kind < 0.6:
            # Route-strip slabs: flat in x or y, thick in t.
            lo = [rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                  5.0 * rng.randrange(24)]
            extent = [rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), 5.0]
            extent[rng.randrange(2)] = 0.0
        else:
            lo = [rng.uniform(-1.0, 10.0) for _ in range(3)]
            extent = [rng.uniform(0.0, 1.5) for _ in range(3)]
        boxes.append(Box3D(
            lo[0], lo[1], lo[2],
            lo[0] + extent[0], lo[1] + extent[1], lo[2] + extent[2],
        ))
    return boxes


def level_digests(tree: RTree) -> tuple[str, ...]:
    """One SHA-256 per tree level over node boxes in entry order."""
    digests = []
    level = [tree._root]
    while level:
        rows = [
            [(e.box.min_x, e.box.min_y, e.box.min_t,
              e.box.max_x, e.box.max_y, e.box.max_t) for e in node.entries]
            for node in level
        ]
        digests.append(hashlib.sha256(repr(rows).encode()).hexdigest()[:16])
        if level[0].is_leaf:
            break
        level = [e.child for node in level for e in node.entries]
    return tuple(digests)


def assert_tight(tree: RTree, expected_size: int) -> None:
    """Covering boxes equal child boxes; fill, parents and size hold."""
    assert len(tree) == expected_size
    root = tree._root
    assert root.parent is None
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        assert len(node.entries) <= tree.max_entries
        if node is not root:
            assert len(node.entries) >= tree.min_entries
        if node.is_leaf:
            count += len(node.entries)
            continue
        for entry in node.entries:
            child = entry.child
            assert child.parent is node
            assert entry.box == child.bounding_box()
            stack.append(child)
    assert count == expected_size


def run_sequence(tree: RTree, boxes: list[Box3D], deletes: int, seed: int,
                 check_every: int) -> None:
    """Insert all, delete a seeded sample, reinsert it; check as we go."""
    rng = random.Random(seed)
    size = 0
    step = 0

    def checked() -> None:
        nonlocal step
        step += 1
        if step % check_every == 0:
            assert_tight(tree, size)

    for i, box in enumerate(boxes):
        tree.insert(box, i)
        size += 1
        checked()
    victims = rng.sample(range(len(boxes)), deletes)
    for i in victims:
        assert tree.delete(boxes[i], i)
        size -= 1
        checked()
    for i in victims:
        tree.insert(boxes[i], i)
        size += 1
        checked()
    assert_tight(tree, size)
    tree.check_invariants()


@pytest.mark.parametrize("fanout", sorted(PINNED))
def test_structure_pinned_after_insert_delete_reinsert(fanout):
    max_entries, min_entries = fanout
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    run_sequence(tree, adversarial_boxes(INSERTS, seed=1998), DELETES,
                 seed=7, check_every=250)
    observed = (tree.height, tree.node_count(), tree.content_digest(),
                level_digests(tree))
    assert observed == PINNED[fanout]


@pytest.mark.parametrize("fanout", sorted(PINNED))
def test_covering_boxes_tight_after_every_operation(fanout):
    """The same stream, shorter, with the full check after each step."""
    max_entries, min_entries = fanout
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    run_sequence(tree, adversarial_boxes(400, seed=3), 150, seed=11,
                 check_every=1)


def test_signed_zero_operand_choice_matches_builtin_min_max():
    """A covering box keeps the operand ``min``/``max`` would keep.

    ``min(0.0, -0.0)`` is ``0.0`` and ``min(-0.0, 0.0)`` is ``-0.0``
    (the first of equal operands wins); ``repr`` tells them apart.
    """
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        tree = RTree(max_entries=2, min_entries=1)
        tree.insert(Box3D(first, first, first, 1.0, 1.0, 1.0), "a")
        tree.insert(Box3D(second, second, second, 1.0, 1.0, 1.0), "b")
        tree.insert(Box3D(5.0, 5.0, 5.0, 6.0, 6.0, 6.0), "c")
        for entry in tree._root.entries:
            child = entry.child
            expected = child.entries[0].box
            for other in child.entries[1:]:
                expected = expected.union(other.box)
            assert repr(entry.box) == repr(expected)
            assert repr(child.bounding_box()) == repr(expected)
