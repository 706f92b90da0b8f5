"""Spatial sharding as an index configuration.

:class:`PartitionedIndex` lays the (x, y, t) boxes of §4.2 out over N
inner indexes, one per shard of a
:class:`~repro.shard.partition.Partitioning`, behind the protocol
:class:`~repro.index.timespace.TimeSpaceIndex` and
:class:`~repro.index.scan.LinearScanIndex` share.
``MovingObjectDatabase(index=PartitionedIndex(plan, TimeSpaceIndex))``
*is* the sharded database: one record table, one stationary store, one
update log and one clock, so every query kind, validation and trace
event is the single implementation in :mod:`repro.dbms` — a may/must
answer (Theorems 5-6) is a function of the records, and the partition
only decides which boxes are searched.

* **routing** — each o-plane is owned by exactly one shard, chosen
  from its attribute's start point at insert; ownership is sticky (an
  object that drives into another cell stays with its owner — the
  owner's *coverage* grows instead), so every index update is a
  single-shard operation.
* **fan-out pruning** — each shard tracks a coverage rectangle: the
  union of the route bounding boxes of every route its o-planes have
  ever lain on.  Every index box of an o-plane is a sub-polyline of its
  route (:meth:`OPlane.travel_range` clamps to ``[0, length]``), so a
  query window disjoint from a shard's coverage cannot match any of its
  index boxes — that shard is skipped without changing the candidate
  set.  Pruning only engages when every shard runs a
  :class:`~repro.index.timespace.TimeSpaceIndex`; the linear-scan
  baseline reports its whole population for any window, so every shard
  must be consulted.
* **candidate sets partition by owner** — a window's candidates are the
  union of the fanned shards' candidates, which is the set a single
  index over the same o-planes returns (up to the false positives
  refinement removes either way).

The index emits one ``shard_route`` trace event per routing decision
and the ``shard_*`` metrics where fan-out is decided.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import IndexError_, ShardError
from repro.geometry.bbox import Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import probe
from repro.routes.route import Route
from repro.shard.partition import Partitioning
from repro.trace.events import SHARD_ROUTE, digest

class PartitionedIndex:
    """N inner indexes behind the one-index protocol.

    ``index_factory`` builds one index per shard of ``partitioning``.
    """

    def __init__(self, partitioning: Partitioning,
                 index_factory: Callable[[], Any]) -> None:
        self.partitioning = partitioning
        self.num_shards = partitioning.num_shards
        self._parts = [index_factory() for _ in range(self.num_shards)]
        self._owner: dict[str, int] = {}
        self._coverage: list[Rect2D | None] = [None] * self.num_shards
        self._covered_routes: list[set[str]] = [
            set() for _ in range(self.num_shards)
        ]

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._owner

    # ------------------------------------------------------------------
    # Layout introspection
    # ------------------------------------------------------------------

    @property
    def partitions(self) -> tuple[Any, ...]:
        """The inner per-shard indexes, in shard order."""
        return tuple(self._parts)

    def owner_of(self, object_id: str) -> int:
        """The shard owning an indexed object."""
        shard = self._owner.get(object_id)
        if shard is None:
            raise IndexError_(f"object {object_id!r} is not indexed")
        return shard

    def coverage_of(self, shard: int) -> Rect2D | None:
        """The shard's coverage rectangle (``None`` when empty)."""
        if not 0 <= shard < self.num_shards:
            raise ShardError(
                f"shard id {shard} out of range [0, {self.num_shards})"
            )
        return self._coverage[shard]

    def shard_sizes(self) -> list[int]:
        """Indexed object count per shard, in shard order."""
        counts = [0] * self.num_shards
        for shard in self._owner.values():
            counts[shard] += 1
        return counts

    def describe(self) -> dict[str, Any]:
        """The ``db_config`` trace fields: the inner index's, plus the plan."""
        return {
            **self._parts[0].describe(),
            "shards": self.num_shards,
            "partitioning": self.partitioning.to_spec(),
        }

    def content_digest(self) -> str | None:
        """One digest over the per-shard index digests, in shard order.

        ``None`` when the inner indexes keep no digest (the linear-scan
        baseline).
        """
        parts = [part.content_digest() for part in self._parts]
        return None if None in parts else digest(parts)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _prunable(self) -> bool:
        """Fan-out pruning is sound only over the time-space index.

        ``LinearScanIndex`` returns its whole population for any
        window, so candidate sets do not partition by coverage and
        every shard must be consulted.
        """
        return all(isinstance(part, TimeSpaceIndex) for part in self._parts)

    def shards_for_window(self, window: Rect2D) -> tuple[int, ...]:
        """Shards whose coverage can contribute candidates to ``window``."""
        if not self._prunable():
            return tuple(range(self.num_shards))
        return tuple(
            shard for shard in range(self.num_shards)
            if self._coverage[shard] is not None
            and self._coverage[shard].intersects(window)
        )

    def _grow_coverage(self, shard: int, route: Route) -> None:
        if route.route_id in self._covered_routes[shard]:
            return
        self._covered_routes[shard].add(route.route_id)
        bbox = route.polyline.bounding_rect()
        current = self._coverage[shard]
        self._coverage[shard] = bbox if current is None \
            else current.union(bbox)

    def observe_fanout(self, fanned: int) -> None:
        """Count one routed window against the fan-out telemetry."""
        p = probe()
        if p.enabled:
            p.observe("shard_query_fanout", float(fanned))
            p.count("shard_queries_total")

    def _publish_size(self, shard: int) -> None:
        p = probe()
        if p.enabled:
            p.gauge("shard_objects", len(self._parts[shard]),
                    shard=str(shard))

    # ------------------------------------------------------------------
    # Maintenance (the §4.2 o-plane swap, one shard per call)
    # ------------------------------------------------------------------

    def insert(self, object_id: str, plane: OPlane) -> Any:
        """Route a new o-plane to its owner shard and index it there."""
        if object_id in self._owner:
            raise IndexError_(
                f"object {object_id!r} already indexed; use replace()"
            )
        attribute = plane.attribute
        shard = self.partitioning.shard_of_point(
            attribute.start_x, attribute.start_y
        )
        p = probe()
        if p.enabled:
            p.event(SHARD_ROUTE, time=attribute.starttime,
                    object_id=object_id, shard=shard)
        result = self._parts[shard].insert(object_id, plane)
        self._owner[object_id] = shard
        self._grow_coverage(shard, plane.route)
        self._publish_size(shard)
        return result

    def replace(self, object_id: str, plane: OPlane) -> Any:
        """Swap an object's o-plane inside its owner shard."""
        shard = self._owner.get(object_id)
        if shard is None:
            return self.insert(object_id, plane)
        self._grow_coverage(shard, plane.route)
        p = probe()
        if p.enabled:
            p.count("shard_updates_total", shard=str(shard))
        return self._parts[shard].replace(object_id, plane)

    def remove(self, object_id: str) -> int:
        """Drop an object from its owner shard (coverage never shrinks)."""
        shard = self.owner_of(object_id)
        del self._owner[object_id]
        removed = self._parts[shard].remove(object_id)
        self._publish_size(shard)
        return removed

    def rebuilt(self, planes: dict[str, OPlane],
                **tuning: float) -> "PartitionedIndex":
        """Re-slab every shard in place; owners and coverage are kept."""
        owned: list[dict[str, OPlane]] = [{} for _ in self._parts]
        for object_id, plane in planes.items():
            owned[self._owner[object_id]][object_id] = plane
        self._parts = [
            TimeSpaceIndex.bulk_build(shard_planes, **tuning)
            for shard_planes in owned
        ]
        return self

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def candidates_at(self, region: Rect2D, t: float,
                      stats: SearchStats | None = None) -> set[str]:
        """Union of the fanned shards' candidates for one window."""
        fanned = self.shards_for_window(region)
        self.observe_fanout(len(fanned))
        found: set[str] = set()
        for shard in fanned:
            found |= self._parts[shard].candidates_at(region, t, stats)
        return found

    def candidates_at_many(self, windows: list[tuple[Rect2D, float]],
                           stats: SearchStats | None = None) -> list[set[str]]:
        """Candidate sets for many windows: one multi-search per shard."""
        routed: list[list[int]] = [[] for _ in self._parts]
        for slot, (region, _) in enumerate(windows):
            fanned = self.shards_for_window(region)
            self.observe_fanout(len(fanned))
            for shard in fanned:
                routed[shard].append(slot)
        found: list[set[str]] = [set() for _ in windows]
        for part, slots in zip(self._parts, routed):
            if not slots:
                continue
            pieces = part.candidates_at_many(
                [windows[slot] for slot in slots], stats
            )
            for slot, piece in zip(slots, pieces):
                found[slot] |= piece
        return found


__all__ = [
    "PartitionedIndex",
]
