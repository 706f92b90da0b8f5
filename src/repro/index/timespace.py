"""The time-space index the DBMS maintains (paper §4.2).

"For each position attribute of an object class we establish a
3-dimensional space consisting of the 2-dimensional geographic area of
interest, and of a time span T. ... The index is updated whenever a
position-update is received from a moving object o: ... the id of o is
removed from the 3-dimensional rectangles of the index that intersect
[the old o-plane] p1, and it is inserted in the 3-dimensional
rectangles that intersect [the new o-plane] p2."

:class:`TimeSpaceIndex` realises this on top of the R-tree: each
object's current o-plane is decomposed into slab runs
(:meth:`~repro.index.oplane.OPlane.runs`), inserted under the object's
id; a position update swaps the old runs for new ones; a query at time
``t0`` retrieves the candidate ids whose boxes intersect the query
region's footprint at ``t0``.  Refinement to exact may/must answers
happens above, in the DBMS query processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container

from repro.errors import IndexError_
from repro.geometry.bbox import Box3D, Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import RTree, SearchStats, entries_digest
from repro.obs.probe import Probe, probe
from repro.trace.events import INDEX_INSERT, INDEX_REMOVE, INDEX_REPLACE


@dataclass(frozen=True, slots=True)
class IndexMaintenanceStats:
    """Counts of index work done for one position update."""

    boxes_removed: int
    boxes_inserted: int


class TimeSpaceIndex:
    """3-D index of o-planes, keyed by object id.

    The swap only pays off for a tree someone searches: until the first
    read (a search, a digest, :attr:`tree`) a write changes only the
    content, returning, counting and emitting what a swap would, and
    that read STR-loads the tree over it, in last-written order.
    """

    def __init__(self, slab_minutes: float = 5.0,
                 max_entries: int = 8, min_entries: int = 3) -> None:
        if not slab_minutes > 0:
            raise IndexError_(f"slab_minutes must be positive, got {slab_minutes}")
        self.slab_minutes = slab_minutes
        self._tree = RTree(max_entries=max_entries, min_entries=min_entries)
        #: Whether ``_tree`` holds the content; ``_size`` counts its runs.
        self._built = False
        self._size = 0
        self._planes: dict[str, OPlane] = {}
        self._runs: dict[str, list[Box3D]] = {}

    def __len__(self) -> int:
        """Number of indexed objects."""
        return len(self._planes)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._planes

    @property
    def tree(self) -> RTree:
        """The underlying R-tree, built on first read (read-only use by
        benchmarks)."""
        if not self._built:
            self._build()
        return self._tree

    def _build(self) -> None:
        items = [(run, object_id) for object_id, runs in self._runs.items()
                 for run in runs]
        if items:  # else the constructor's empty tree is the one
            self._tree = RTree.bulk_load(
                items, max_entries=self._tree.max_entries,
                min_entries=self._tree.min_entries)
        self._built = True

    def plane_of(self, object_id: str) -> OPlane:
        """The currently indexed o-plane of an object."""
        try:
            return self._planes[object_id]
        except KeyError:
            raise IndexError_(f"object {object_id!r} is not indexed") from None

    @classmethod
    def bulk_build(cls, planes: dict[str, OPlane],
                   slab_minutes: float = 5.0,
                   max_entries: int = 8, min_entries: int = 3) -> "TimeSpaceIndex":
        """Build an index over many o-planes at once (STR packing).

        The cold-start path (index rebuild, re-slabbing): decompose
        every plane into slab runs and bulk-load the R-tree, which is
        an order of magnitude faster than inserting one plane at a time.
        The tree exists on return, even over no planes, so every later
        write is the §4.2 swap.
        """
        index = cls(slab_minutes=slab_minutes, max_entries=max_entries,
                    min_entries=min_entries)
        for object_id, plane in planes.items():
            index._insert_boxes(object_id, plane, plane.runs(slab_minutes))
        index._build()
        return index

    def rebuilt(self, planes: dict[str, OPlane],
                **tuning: float) -> "TimeSpaceIndex":
        """The index a database swaps in when it is re-slabbed."""
        return self.bulk_build(planes, **tuning)

    def describe(self) -> dict[str, Any]:
        """The ``db_config`` trace fields that rebuild this index."""
        return {"index": type(self).__name__,
                "slab_minutes": self.slab_minutes}

    def insert(self, object_id: str, plane: OPlane) -> int:
        """Index a new object's o-plane; returns the stored box count."""
        inserted = self._insert_boxes(object_id, plane,
                                      plane.runs(self.slab_minutes))
        p = probe()
        if p.enabled:
            p.count("index_boxes_inserted_total", inserted)
            self._publish_size(p)
            p.event(INDEX_INSERT, object_id=object_id, boxes=inserted)
        return inserted

    def _insert_boxes(self, object_id: str, plane: OPlane,
                      runs: list[Box3D]) -> int:
        """Insert without publishing metrics (replace publishes once)."""
        if object_id in self._planes:
            raise IndexError_(
                f"object {object_id!r} already indexed; use replace()"
            )
        if self._built:
            for run in runs:
                self._tree.insert(run, object_id)
        self._planes[object_id] = plane
        self._runs[object_id] = runs
        self._size += len(runs)
        return len(runs)

    def remove(self, object_id: str) -> int:
        """Drop an object from the index; returns removed box count."""
        removed = self._remove_boxes(object_id)
        p = probe()
        if p.enabled:
            p.count("index_boxes_removed_total", removed)
            self._publish_size(p)
            p.event(INDEX_REMOVE, object_id=object_id, boxes=removed)
        return removed

    def _remove_boxes(self, object_id: str) -> int:
        """Remove without publishing metrics (replace publishes once)."""
        if object_id not in self._planes:
            raise IndexError_(f"object {object_id!r} is not indexed")
        runs = self._runs.pop(object_id)
        del self._planes[object_id]
        self._size -= len(runs)
        if not self._built:
            return len(runs)
        removed = sum(self._tree.delete(run, object_id) for run in runs)
        if removed != len(runs):
            raise IndexError_(
                f"index corruption: expected to remove {len(runs)} boxes "
                f"for {object_id!r}, removed {removed}"
            )
        return removed

    def _publish_size(self, p: Probe) -> None:
        p.gauge("index_objects", len(self._planes))
        p.gauge("index_slab_boxes", self._size)

    def replace(self, object_id: str, plane: OPlane,
                force: bool = False) -> IndexMaintenanceStats:
        """The §4.2 update step: swap the old o-plane for the new one.

        When the new plane decomposes into exactly the slab runs
        already stored (an update that did not move the indexed
        envelope), the R-tree round-trip is skipped entirely: only the
        plane record is refreshed and the stats report zero box work.
        ``force`` disables the skip (maintenance experiments use it to
        measure a full swap).  Either way the size gauges are published
        once per replace, not once per remove plus once per insert.
        """
        if object_id not in self._planes:
            inserted = self.insert(object_id, plane)
            return IndexMaintenanceStats(
                boxes_removed=0, boxes_inserted=inserted
            )
        new_runs = plane.runs(self.slab_minutes)
        skipped = not force and new_runs == self._runs[object_id]
        removed = inserted = 0
        if skipped:
            self._planes[object_id] = plane
        else:
            removed = self._remove_boxes(object_id)
            inserted = self._insert_boxes(object_id, plane, new_runs)
        p = probe()
        if p.enabled:
            if skipped:
                p.count("index_replace_skipped_total")
            else:
                p.count("index_boxes_removed_total", removed)
                p.count("index_boxes_inserted_total", inserted)
                self._publish_size(p)
            p.event(INDEX_REPLACE, object_id=object_id,
                    removed=removed, inserted=inserted, skipped=skipped)
        return IndexMaintenanceStats(
            boxes_removed=removed, boxes_inserted=inserted
        )

    def content_digest(self, object_ids: Container[str] | None = None) -> str:
        """Digest of the R-tree's content in slab units (replay checks).

        Each tree entry is expanded into its object's slab boxes that it
        covers (same rectangle, time inside the run), each with its own
        rectangle's bits: the digest of a tree of one box per slab, which
        a lost or extra entry still changes.  Given ``object_ids``, only
        their entries are digested.
        """
        stored: dict[str, list[Box3D]] = {}
        for run, object_id in self.tree.items():
            if object_ids is None or object_id in object_ids:
                stored.setdefault(object_id, []).append(run)
        return entries_digest(  # one object's slab boxes at a time
            (slab, object_id)
            for object_id, runs in stored.items()
            for slabs in [self._slab_boxes(self._planes.get(object_id))]
            for run in runs
            for slab in [
                box for box in slabs
                if run.min_t <= box.min_t and box.max_t <= run.max_t
                and box.min_x == run.min_x and box.min_y == run.min_y
                and box.max_x == run.max_x and box.max_y == run.max_y
            ] or [run]
        )

    def _slab_boxes(self, plane: OPlane | None) -> list[Box3D]:
        """One box per slab of ``plane``, on the slab grid."""
        if plane is None:  # a tree entry of an id the index does not hold
            return []
        edges, changes = plane.slab_rects(self.slab_minutes)
        times = [plane.start_time + edge for edge in edges]
        ends = [first for _, first in changes[1:]] + [len(edges) - 1]
        return [Box3D.from_rect(rect, times[k], times[k + 1])
                for (rect, first), end in zip(changes, ends)
                for k in range(first, end)]

    def candidates_at(self, region: Rect2D, t: float,
                      stats: SearchStats | None = None) -> set[str]:
        """Object ids whose boxes intersect ``region`` at time ``t``.

        This is the sublinear retrieval step: the ids come back as a
        set because an o-plane may contribute several matching boxes.
        Every object that may be in the region at ``t`` is included
        (the decomposition is conservative); some returned objects will
        be filtered out by exact refinement.
        """
        payloads = self.tree.search(
            Box3D.from_rect(region, t, t), stats
        )
        return set(payloads)  # type: ignore[arg-type]

    def candidates_at_many(self, windows: list[tuple[Rect2D, float]],
                           stats: SearchStats | None = None) -> list[set[str]]:
        """Candidate sets for many ``(region, t)`` windows in one traversal.

        Set-equal to ``[self.candidates_at(r, t) for r, t in windows]``
        but answered by a single shared R-tree walk
        (:meth:`RTree.search_many`).
        """
        boxes = [Box3D.from_rect(region, t, t) for region, t in windows]
        found = self.tree.search_many(boxes, stats)
        return [set(payloads) for payloads in found]  # type: ignore[arg-type]

    def object_ids(self) -> list[str]:
        """All indexed object ids."""
        return list(self._planes)

    def total_boxes(self) -> int:
        """Total number of boxes (slab runs) stored, built or not."""
        return self._size

__all__ = [
    "IndexMaintenanceStats",
    "TimeSpaceIndex",
]
