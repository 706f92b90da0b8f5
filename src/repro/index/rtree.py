"""A from-scratch R-tree over 3-D boxes (Guttman 1984, quadratic split).

The paper prescribes "a 3-dimensional spatial index, e.g. an R+-tree"
over (x, y, t) time-space.  We implement the classic R-tree: it is the
canonical member of the family, supports the required operations
(insert, delete, box-intersection search), and preserves the property
the paper relies on — sublinear candidate retrieval for queries that
touch a small part of the indexed space.

Implementation notes
--------------------
* Fanout is configurable (``max_entries``/``min_entries``); defaults
  follow the usual M = 8, m = 3 for in-memory trees.
* Many indexed boxes are volume-degenerate (an uncertainty interval
  along an axis-parallel route has zero spatial height).  All size
  comparisons therefore use a *measure* that blends volume with margin,
  keeping ChooseLeaf and the quadratic split discriminating even for
  flat boxes.
* Searches report :class:`SearchStats` (nodes visited, leaf entries
  tested) so benchmarks can demonstrate sublinearity directly rather
  than inferring it from wall-clock noise.
* Maintenance (ChooseLeaf, the quadratic split, covering-box refresh)
  works on coordinate tuples (``_Extent``).  A cover — an entry over a
  child node — keeps its extent and measure beside its box, set wherever
  a cover is stored, so ChooseLeaf reads two slots per entry it scans;
  leaf entries keep only their box.  The measure of a union is computed
  inline from the two operands' floats, and a :class:`Box3D` is built
  only for a cover that is stored or moved.  A union coordinate is
  ``b if b < a else a`` (resp. ``>``), which keeps the operand the
  ``min``/``max`` builtins keep — the first of equal ones, signed zeros
  included — so comparison keys, tie-breaks and stored boxes are those of
  ``Box3D.union`` and the tree is the same node for node
  (``tests/index/test_rtree_structure.py`` pins it, and
  ``tests/oracle/test_rtree_differential.py`` holds it to a frozen copy
  of the tree from before covers cached their extents).
* Search and the delete descent compare local floats too: a window's (or
  a deleted box's) extent is unpacked once, and the pair test is
  ``Box3D.intersects``'s (``contains``'s) six comparisons.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

from repro.errors import IndexError_
from repro.geometry.bbox import Box3D
from repro.obs.probe import probe

#: Weight of the margin term in the box measure; small enough that
#: volume dominates whenever volumes are non-degenerate.
_MARGIN_WEIGHT = 1e-6


#: ``(min_x, min_y, min_t, max_x, max_y, max_t)`` of a box or a union.
_Extent = tuple[float, float, float, float, float, float]


def _extent(box: Box3D) -> _Extent:
    return (box.min_x, box.min_y, box.min_t, box.max_x, box.max_y, box.max_t)


_pack_extent = struct.Struct("6d").pack


def _same_bits(extent: _Extent, other: _Extent) -> bool:
    """Equal coordinate for coordinate, telling ``-0.0`` from ``0.0``."""
    return extent == other and (
        0.0 not in extent or _pack_extent(*extent) == _pack_extent(*other))


def _union(a: _Extent, b: _Extent) -> _Extent:
    """Extent of ``Box3D.union``: of equal operands the one from ``a``."""
    return (
        b[0] if b[0] < a[0] else a[0],
        b[1] if b[1] < a[1] else a[1],
        b[2] if b[2] < a[2] else a[2],
        b[3] if b[3] > a[3] else a[3],
        b[4] if b[4] > a[4] else a[4],
        b[5] if b[5] > a[5] else a[5],
    )


def _measure(extent: _Extent) -> float:
    """Size surrogate robust to volume-degenerate boxes: volume plus a
    small multiple of margin."""
    x0, y0, t0, x1, y1, t1 = extent
    dx = x1 - x0
    dy = y1 - y0
    dt = t1 - t0
    return dx * dy * dt + _MARGIN_WEIGHT * (dx + dy + dt)


@dataclass(slots=True)
class _Entry:
    """A node slot: a box plus either a payload (leaf) or a child node."""

    box: Box3D
    payload: Hashable | None = None
    child: "_Node | None" = None


@dataclass(slots=True)
class _Cover(_Entry):
    """An entry over a child node, with ``_extent(box)`` and its
    ``_measure`` (leaf entries, the bulk of a tree, carry neither)."""

    extent: _Extent = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    measure: float = 0.0


@dataclass(slots=True)
class _Node:
    is_leaf: bool
    entries: list[_Entry] = field(default_factory=list)
    parent: "_Node | None" = None

    def bounding_box(self) -> Box3D:
        return Box3D(*self.bounding_extent())

    def bounding_extent(self) -> _Extent:
        entries = self.entries
        if not entries:
            raise IndexError_("empty node has no bounding box")
        x0, y0, t0, x1, y1, t1 = _extent(entries[0].box)
        for i in range(1, len(entries)):
            box = entries[i].box
            if box.min_x < x0:
                x0 = box.min_x
            if box.min_y < y0:
                y0 = box.min_y
            if box.min_t < t0:
                t0 = box.min_t
            if box.max_x > x1:
                x1 = box.max_x
            if box.max_y > y1:
                y1 = box.max_y
            if box.max_t > t1:
                t1 = box.max_t
        return (x0, y0, t0, x1, y1, t1)

    def cover(self) -> _Cover:
        """A new parent entry covering this node."""
        extent = self.bounding_extent()
        return _Cover(Box3D(*extent), child=self, extent=extent,
                      measure=_measure(extent))


@dataclass(slots=True)
class SearchStats:
    """Work accounting for searches (sublinearity evidence).

    Every field accumulates: each search a ``stats`` object is passed
    to — single or batched, on any index class — adds its work and its
    match count, so one object reads the same whether its windows were
    searched one at a time or in one multi-search.
    """

    nodes_visited: int = 0
    entries_tested: int = 0
    results: int = 0


class RTree:
    """An R-tree mapping 3-D boxes to hashable payloads.

    The same payload may be inserted under several boxes (an o-plane is
    several slab boxes); searches may then report it once per matching
    box, so callers typically collect results into a set.
    """

    def __init__(self, max_entries: int = 8, min_entries: int = 3) -> None:
        for name, value in (("max_entries", max_entries),
                            ("min_entries", min_entries)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise IndexError_(f"{name} must be an int, got {value!r}")
        if max_entries < 2:
            raise IndexError_(f"max_entries must be >= 2, got {max_entries}")
        if not 1 <= min_entries <= max_entries // 2:
            raise IndexError_(
                f"min_entries must be in [1, max_entries//2], got {min_entries}"
            )
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        """Number of leaf entries currently stored."""
        return self._size

    @property
    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            height += 1
        return height

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]
        return count

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, items: list[tuple[Box3D, Hashable]],
                  max_entries: int = 8, min_entries: int = 3) -> "RTree":
        """Build a packed tree from all items at once (STR packing).

        Sort-Tile-Recursive: sort by x-centre, tile into slabs, sort
        each slab by y-centre, tile again, sort each tile by t-centre,
        and pack runs of ``max_entries`` into leaves; then pack the
        leaves the same way level by level.  Packed trees are flatter
        and tighter than incrementally grown ones, which shows up as
        fewer entries tested per query.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not items:
            return tree
        entries = [
            _Entry(box=box, payload=payload) for box, payload in items
        ]
        level = [
            _Node(is_leaf=True, entries=group)
            for group in cls._str_tile(entries, max_entries, min_entries)
        ]
        tree._size = len(entries)
        while len(level) > 1:
            parent_entries = [node.cover() for node in level]
            groups = cls._str_tile(parent_entries, max_entries, min_entries)
            next_level = []
            for group in groups:
                parent = _Node(is_leaf=False, entries=group)
                for entry in group:
                    assert entry.child is not None
                    entry.child.parent = parent
                next_level.append(parent)
            level = next_level
        tree._root = level[0]
        return tree

    @staticmethod
    def _str_tile(entries: list[_Entry], max_entries: int,
                  min_entries: int) -> list[list[_Entry]]:
        """Partition entries into spatially coherent groups of
        ``<= max_entries`` (and, except for a single-group result,
        ``>= min_entries``)."""
        def center(entry: _Entry, axis: int) -> float:
            box = entry.box
            if axis == 0:
                return (box.min_x + box.max_x) / 2.0
            if axis == 1:
                return (box.min_y + box.max_y) / 2.0
            return (box.min_t + box.max_t) / 2.0

        def chunk(run: list[_Entry], size: int) -> list[list[_Entry]]:
            return [run[i:i + size] for i in range(0, len(run), size)]

        n = len(entries)
        if n <= max_entries:
            return [entries]
        num_groups = -(-n // max_entries)
        slices_x = max(int(round(num_groups ** (1.0 / 3.0))), 1)
        per_x = -(-n // slices_x)
        by_x = sorted(entries, key=lambda e: center(e, 0))
        groups: list[list[_Entry]] = []
        for x_run in chunk(by_x, per_x):
            groups_in_run = -(-len(x_run) // max_entries)
            slices_y = max(int(round(groups_in_run ** 0.5)), 1)
            per_y = -(-len(x_run) // slices_y)
            by_y = sorted(x_run, key=lambda e: center(e, 1))
            for y_run in chunk(by_y, per_y):
                by_t = sorted(y_run, key=lambda e: center(e, 2))
                groups.extend(chunk(by_t, max_entries))
        # Fill-factor repair: a trailing group smaller than min_entries
        # borrows from its (necessarily full-enough) predecessor.
        repaired: list[list[_Entry]] = []
        for group in groups:
            if (repaired and len(group) < min_entries
                    and len(repaired[-1]) > min_entries):
                needed = min_entries - len(group)
                take = min(needed, len(repaired[-1]) - min_entries)
                for _ in range(take):
                    group.insert(0, repaired[-1].pop())
            repaired.append(group)
        # Any still-underfull group merges into its predecessor when the
        # combined size fits; otherwise rebalance the pair evenly.
        final: list[list[_Entry]] = []
        for group in repaired:
            if final and len(group) < min_entries:
                combined = final[-1] + group
                if len(combined) <= max_entries:
                    final[-1] = combined
                    continue
                half = len(combined) // 2
                final[-1] = combined[:half]
                group = combined[half:]
            final.append(group)
        return final

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, box: Box3D, payload: Hashable) -> None:
        """Insert ``payload`` under ``box``."""
        leaf = self._choose_leaf(self._root, box)
        leaf.entries.append(_Entry(box=box, payload=payload))
        self._size += 1
        self._handle_overflow(leaf)

    def _choose_leaf(self, node: _Node, box: Box3D) -> _Node:
        """Descend by least enlargement, ties to the smaller measure,
        then to the earlier entry."""
        x0, y0, t0, x1, y1, t1 = _extent(box)
        while not node.is_leaf:
            best: _Entry | None = None
            best_enlargement = best_measure = 0.0
            for entry in node.entries:
                # _measure of the union with the cover, less the cover's.
                cx0, cy0, ct0, cx1, cy1, ct1 = entry.extent  # type: ignore[attr-defined]
                measure = entry.measure  # type: ignore[attr-defined]
                dx = (x1 if x1 > cx1 else cx1) - (x0 if x0 < cx0 else cx0)
                dy = (y1 if y1 > cy1 else cy1) - (y0 if y0 < cy0 else cy0)
                dt = (t1 if t1 > ct1 else ct1) - (t0 if t0 < ct0 else ct0)
                enlargement = (dx * dy * dt + _MARGIN_WEIGHT * (dx + dy + dt)
                               - measure)
                if (best is None or enlargement < best_enlargement
                        or (enlargement == best_enlargement
                            and measure < best_measure)):
                    best_enlargement = enlargement
                    best_measure = measure
                    best = entry
            assert best is not None and best.child is not None
            node = best.child
        return node

    def _handle_overflow(self, node: _Node) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                # Grow the tree: new root over node and sibling.
                new_root = _Node(is_leaf=False)
                for child in (node, sibling):
                    child.parent = new_root
                    new_root.entries.append(child.cover())
                self._root = new_root
                return
            sibling.parent = parent
            parent.entries.append(sibling.cover())
            self._refresh_cover(node)
            node = parent
        self._refresh_covers_above(node)

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: distribute ``node``'s entries, return sibling."""
        entries = node.entries
        if node.is_leaf:
            extents = [_extent(entry.box) for entry in entries]
            measures = [_measure(extent) for extent in extents]
        else:
            extents = [entry.extent for entry in entries]  # type: ignore[attr-defined]
            measures = [entry.measure for entry in entries]  # type: ignore[attr-defined]
        seed_a, seed_b = self._pick_seeds(extents, measures)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        cover_a = extents[seed_a]
        cover_b = extents[seed_b]
        rest = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]
        remaining = [entries[i] for i in rest]
        remaining_extents = [extents[i] for i in rest]
        while remaining:
            # Force assignment when one group must absorb the rest to
            # reach the minimum fill (the covers are not read again).
            if self.min_entries - len(group_a) >= len(remaining):
                group_a.extend(remaining)
                break
            if self.min_entries - len(group_b) >= len(remaining):
                group_b.extend(remaining)
                break
            index, prefer_a = self._pick_next(
                remaining_extents, cover_a, cover_b
            )
            entry = remaining.pop(index)
            extent = remaining_extents.pop(index)
            if prefer_a:
                group_a.append(entry)
                cover_a = _union(cover_a, extent)
            else:
                group_b.append(entry)
                cover_b = _union(cover_b, extent)
        node.entries = group_a
        sibling = _Node(is_leaf=node.is_leaf, entries=group_b)
        if not sibling.is_leaf:
            for entry in sibling.entries:
                assert entry.child is not None
                entry.child.parent = sibling
        return sibling

    @staticmethod
    def _pick_seeds(extents: list[_Extent],
                    measures: list[float]) -> tuple[int, int]:
        """The pair wasting the most space when grouped together."""
        worst_pair = (0, 1)
        worst_waste = float("-inf")
        for i in range(len(extents)):
            ax0, ay0, at0, ax1, ay1, at1 = extents[i]
            measure = measures[i]
            for j in range(i + 1, len(extents)):
                bx0, by0, bt0, bx1, by1, bt1 = extents[j]
                dx = (bx1 if bx1 > ax1 else ax1) - (bx0 if bx0 < ax0 else ax0)
                dy = (by1 if by1 > ay1 else ay1) - (by0 if by0 < ay0 else ay0)
                dt = (bt1 if bt1 > at1 else at1) - (bt0 if bt0 < at0 else at0)
                waste = (dx * dy * dt + _MARGIN_WEIGHT * (dx + dy + dt)
                         - measure - measures[j])
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    @staticmethod
    def _pick_next(remaining: list[_Extent], cover_a: _Extent,
                   cover_b: _Extent) -> tuple[int, bool]:
        """The entry with the strongest group preference, and that group."""
        measure_a = _measure(cover_a)
        measure_b = _measure(cover_b)
        ax0, ay0, at0, ax1, ay1, at1 = cover_a
        bx0, by0, bt0, bx1, by1, bt1 = cover_b
        best_index = 0
        best_difference = -1.0
        best_prefer_a = True
        for i, (x0, y0, t0, x1, y1, t1) in enumerate(remaining):
            dx = (x1 if x1 > ax1 else ax1) - (x0 if x0 < ax0 else ax0)
            dy = (y1 if y1 > ay1 else ay1) - (y0 if y0 < ay0 else ay0)
            dt = (t1 if t1 > at1 else at1) - (t0 if t0 < at0 else at0)
            growth_a = (dx * dy * dt + _MARGIN_WEIGHT * (dx + dy + dt)
                        - measure_a)
            dx = (x1 if x1 > bx1 else bx1) - (x0 if x0 < bx0 else bx0)
            dy = (y1 if y1 > by1 else by1) - (y0 if y0 < by0 else by0)
            dt = (t1 if t1 > bt1 else bt1) - (t0 if t0 < bt0 else bt0)
            growth_b = (dx * dy * dt + _MARGIN_WEIGHT * (dx + dy + dt)
                        - measure_b)
            difference = abs(growth_a - growth_b)
            if difference > best_difference:
                best_difference = difference
                best_index = i
                best_prefer_a = growth_a < growth_b
        return best_index, best_prefer_a

    @staticmethod
    def _refresh_cover(node: _Node) -> bool:
        """Recompute ``node``'s covering box in its parent.

        Returns whether the stored cover moved.  Covers are kept tight
        (``check_invariants``): each is the bounding box of the node's
        current entries, bit for bit.  So when a recomputed cover comes
        out identical, the parent's entries are what its own cover was
        computed from, and no cover above can move either.
        """
        assert node.parent is not None
        for entry in node.parent.entries:
            if entry.child is node:
                extent = node.bounding_extent()
                if _same_bits(extent, entry.extent):  # type: ignore[attr-defined]
                    return False
                entry.box = Box3D(*extent)
                entry.extent = extent  # type: ignore[attr-defined]
                entry.measure = _measure(extent)  # type: ignore[attr-defined]
                return True
        raise IndexError_("node is missing from its parent")

    def _refresh_covers_above(self, node: _Node) -> None:
        """Recompute covers from ``node`` up, as far as they move."""
        while node.parent is not None and self._refresh_cover(node):
            node = node.parent

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, box: Box3D, stats: SearchStats | None = None) -> list[Hashable]:
        """Payloads of all leaf entries whose boxes intersect ``box``.

        When the run is observed, the per-search work accounting
        (nodes visited, entries tested, result count) is also stated
        to the probe — the same numbers
        :class:`SearchStats` reports, but aggregated across every
        search of a run instead of one call at a time.
        """
        p = probe()
        observed = p.enabled
        if observed and stats is None:
            stats = SearchStats()
        base_nodes = stats.nodes_visited if stats is not None else 0
        base_entries = stats.entries_tested if stats is not None else 0
        results: list[Hashable] = []
        if self._size > 0:
            x0, y0, t0, x1, y1, t1 = _extent(box)
            stack = [self._root]
            while stack:
                node = stack.pop()
                if stats is not None:
                    stats.nodes_visited += 1
                for entry in node.entries:
                    if stats is not None:
                        stats.entries_tested += 1
                    # Box3D.intersects, the query's side in local floats.
                    cover = entry.box
                    if not (cover.min_x <= x1 and x0 <= cover.max_x
                            and cover.min_y <= y1 and y0 <= cover.max_y
                            and cover.min_t <= t1 and t0 <= cover.max_t):
                        continue
                    if node.is_leaf:
                        results.append(entry.payload)
                    else:
                        assert entry.child is not None
                        stack.append(entry.child)
        if stats is not None:
            stats.results += len(results)
        if observed:
            p.count("index_searches_total")
            p.count("index_nodes_visited_total",
                    stats.nodes_visited - base_nodes)
            p.count("index_entries_tested_total",
                    stats.entries_tested - base_entries)
            p.observe("index_search_results", len(results))
        return results

    def search_many(self, boxes: list[Box3D],
                    stats: SearchStats | None = None) -> list[list[Hashable]]:
        """Answer many box searches in a single tree traversal.

        Equivalent to ``[self.search(b) for b in boxes]`` up to result
        order within each answer (callers collect into sets), but each
        tree node is visited at most once: the traversal carries the
        list of still-active queries per subtree, so node access and
        per-entry loop overhead are amortised over the whole batch
        instead of paid once per query.

        ``stats`` aggregates work across the batch; ``results`` counts
        the total matches over all queries.  When observability is
        enabled, batch-level counters (`index_multi_*`) record the
        traversal sharing so the amortisation is measurable, and
        ``index_search_results`` observes each window's result count,
        as one :meth:`search` per window would.
        """
        results: list[list[Hashable]] = [[] for _ in boxes]
        if not boxes:
            return results
        p = probe()
        observed = p.enabled
        if observed and stats is None:
            stats = SearchStats()
        base_nodes = stats.nodes_visited if stats is not None else 0
        base_entries = stats.entries_tested if stats is not None else 0
        shared_visits = 0
        nodes_visited = 0
        if self._size > 0:
            # Sort queries spatially so active lists stay contiguous
            # runs of similar boxes (cheap, and deterministic).
            order = sorted(
                range(len(boxes)),
                key=lambda i: (boxes[i].min_t, boxes[i].min_x, boxes[i].min_y),
            )
            # Query extents once per batch, one list per coordinate.
            qx0, qy0, qt0, qx1, qy1, qt1 = zip(*map(_extent, boxes))
            stack: list[tuple[_Node, list[int]]] = [(self._root, order)]
            while stack:
                node, active = stack.pop()
                nodes_visited += 1
                shared_visits += len(active)
                if stats is not None:
                    stats.nodes_visited += 1
                is_leaf = node.is_leaf
                for entry in node.entries:
                    if stats is not None:
                        stats.entries_tested += 1
                    x0, y0, t0, x1, y1, t1 = _extent(entry.box)
                    matching = [
                        i for i in active
                        if x0 <= qx1[i] and qx0[i] <= x1
                        and y0 <= qy1[i] and qy0[i] <= y1
                        and t0 <= qt1[i] and qt0[i] <= t1
                    ]
                    if not matching:
                        continue
                    if is_leaf:
                        payload = entry.payload
                        for i in matching:
                            results[i].append(payload)
                    else:
                        assert entry.child is not None
                        stack.append((entry.child, matching))
        total_results = sum(len(found) for found in results)
        if stats is not None:
            stats.results += total_results
        if observed:
            p.count("index_multi_searches_total")
            p.count("index_multi_search_queries_total", len(boxes))
            p.count("index_nodes_visited_total",
                    stats.nodes_visited - base_nodes)
            p.count("index_entries_tested_total",
                    stats.entries_tested - base_entries)
            if nodes_visited:
                p.observe("index_multi_node_share",
                          shared_visits / nodes_visited)
            sizes = p.instrument("index_search_results")
            for found in results:
                sizes.observe(len(found))
        return results

    def search_at_time(self, min_x: float, min_y: float, max_x: float,
                       max_y: float, t: float,
                       stats: SearchStats | None = None) -> list[Hashable]:
        """Search with a planar window at one instant (``R_G(t0)``'s bbox)."""
        return self.search(
            Box3D(min_x, min_y, t, max_x, max_y, t), stats
        )

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, box: Box3D, payload: Hashable) -> bool:
        """Remove one leaf entry matching ``(box, payload)`` exactly.

        Returns True when an entry was removed, False when no exact
        match exists.
        """
        leaf = self._find_leaf(box, payload)
        if leaf is None:
            return False
        for i, entry in enumerate(leaf.entries):
            if entry.payload == payload and entry.box == box:
                del leaf.entries[i]
                break
        self._size -= 1
        self._condense_tree(leaf)
        return True

    def delete_payload(self, payload: Hashable) -> int:
        """Remove *all* leaf entries carrying ``payload``; returns count.

        This is the operation the time-space index uses to drop an old
        o-plane (several boxes per object).
        """
        matches: list[tuple[_Node, _Entry]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                matches.extend(
                    (node, entry)
                    for entry in node.entries
                    if entry.payload == payload
                )
            else:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]
        touched: list[_Node] = []
        for node, entry in matches:
            node.entries.remove(entry)
            self._size -= 1
            touched.append(node)
        for node in touched:
            self._condense_tree(node)
        return len(matches)

    def _find_leaf(self, box: Box3D, payload: Hashable) -> _Node | None:
        """The first leaf, depth first in entry order, holding ``(box,
        payload)``.  Covers are tight (``check_invariants``): every
        ancestor of that leaf *contains* ``box``, so only such covers
        are descended."""
        x0, y0, t0, x1, y1, t1 = _extent(box)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    if entry.payload == payload and entry.box == box:
                        return node
                continue
            for entry in reversed(node.entries):
                cover = entry.box
                if (cover.min_x <= x0 and x1 <= cover.max_x
                        and cover.min_y <= y0 and y1 <= cover.max_y
                        and cover.min_t <= t0 and t1 <= cover.max_t):
                    assert entry.child is not None
                    stack.append(entry.child)
        return None

    def _condense_tree(self, node: _Node) -> None:
        """Guttman's CondenseTree: prune underfull nodes, reinsert orphans."""
        orphans: list[tuple[_Entry, bool]] = []  # (entry, was_leaf_entry)
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.entries) < self.min_entries:
                for entry in parent.entries:
                    if entry.child is current:
                        parent.entries.remove(entry)
                        break
                for entry in current.entries:
                    orphans.append((entry, current.is_leaf))
                # Detach so a later condense on this node is a no-op
                # (delete_payload condenses every touched node).
                current.entries = []
                current.parent = None
            elif not self._refresh_cover(current):
                # Nothing above lost an entry or can change its cover.
                break
            current = parent
        # Shrink the root when it has a single internal child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            only = self._root.entries[0].child
            assert only is not None
            only.parent = None
            self._root = only
        if not self._root.entries and not self._root.is_leaf:
            self._root = _Node(is_leaf=True)
        # Reinsert orphaned entries.
        for entry, was_leaf in orphans:
            if was_leaf:
                self._size -= 1  # insert() will add it back
                self.insert(entry.box, entry.payload)
            else:
                assert entry.child is not None
                self._reinsert_subtree(entry.child)

    def _reinsert_subtree(self, subtree: _Node) -> None:
        """Reinsert every leaf entry of a pruned subtree."""
        stack = [subtree]
        while stack:
            current = stack.pop()
            entries = current.entries
            # Detach before reinsertion so later condenses touching any
            # node of the pruned subtree cannot re-orphan these entries.
            current.entries = []
            current.parent = None
            if current.is_leaf:
                for entry in entries:
                    self._size -= 1
                    self.insert(entry.box, entry.payload)
            else:
                stack.extend(e.child for e in entries)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Box3D, Any]]:
        """Iterate all ``(box, payload)`` leaf entries."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.box, entry.payload
            else:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]

    def content_digest(self) -> str:
        """SHA-256 over the sorted leaf contents (:func:`entries_digest`).

        Structure-independent: two trees holding the same ``(box,
        payload)`` multiset digest equal even when splits placed the
        entries in different nodes.  Float coordinates go through
        ``repr`` (exact), so this is a byte-level content check the
        flight recorder uses as a replay checkpoint.
        """
        return entries_digest(self.items())

    def check_invariants(self) -> None:
        """Validate structural invariants; raises on violation.

        Checks: covering boxes are exactly (bit for bit) the bounding
        boxes of their children, fill factors respected
        (except at the root), leaf depth uniform, parent pointers sane,
        and the size counter matches the leaf-entry count.
        """
        leaf_depths: set[int] = set()
        count = 0
        stack: list[tuple[_Node, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if node is not self._root:
                if len(node.entries) < self.min_entries:
                    raise IndexError_(
                        f"underfull non-root node ({len(node.entries)} entries)"
                    )
            if len(node.entries) > self.max_entries:
                raise IndexError_(
                    f"overfull node ({len(node.entries)} entries)"
                )
            if node.is_leaf:
                leaf_depths.add(depth)
                count += len(node.entries)
                continue
            for entry in node.entries:
                child = entry.child
                if child is None:
                    raise IndexError_("internal entry without child")
                if child.parent is not node:
                    raise IndexError_("broken parent pointer")
                extent = child.bounding_extent()
                if not (isinstance(entry, _Cover)
                        and _same_bits(_extent(entry.box), extent)
                        and _same_bits(entry.extent, extent)
                        and entry.measure == _measure(extent)):
                    raise IndexError_(
                        "covering box is not the child's bounding box")
                stack.append((child, depth + 1))
        if len(leaf_depths) > 1:
            raise IndexError_(f"leaves at different depths: {leaf_depths}")
        if count != self._size:
            raise IndexError_(
                f"size counter {self._size} != leaf entries {count}"
            )


def entries_digest(entries: Iterable[tuple[Box3D, Any]]) -> str:
    """SHA-256 over ``(box, payload)`` entries, sorted, floats by ``repr``."""
    import hashlib

    rows = sorted(
        ((box.min_x, box.min_y, box.min_t,
          box.max_x, box.max_y, box.max_t), repr(payload))
        for box, payload in entries
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()

__all__ = [
    "RTree",
    "SearchStats",
    "entries_digest",
]
