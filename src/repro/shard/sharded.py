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
only decides which tree holds which boxes.

* **ownership** — each o-plane is owned by exactly one shard, chosen
  from its attribute's start point at insert; ownership is sticky (an
  object that drives into another cell stays with its owner), so every
  index update is a single-shard operation.
* **search is the pruning** — a window is searched in every shard, and
  a shard none of whose slab boxes meets the window fails at its
  tree's root cover.  A shard's candidates are exactly the candidates
  a single index over the same o-planes returns that the shard owns,
  so their union is that index's candidate set.

The index emits one ``shard_route`` trace event per ownership decision
and, per searched window, the number of shards that answered with a
candidate (``shard_query_fanout``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import IndexError_
from repro.geometry.bbox import Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import probe
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
    # Telemetry
    # ------------------------------------------------------------------

    def observe_fanout(self, answered: int) -> None:
        """Count one searched window and the shards that answered it."""
        p = probe()
        if p.enabled:
            p.observe("shard_query_fanout", float(answered))
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
        self._publish_size(shard)
        return result

    def replace(self, object_id: str, plane: OPlane) -> Any:
        """Swap an object's o-plane inside its owner shard."""
        shard = self._owner.get(object_id)
        if shard is None:
            return self.insert(object_id, plane)
        p = probe()
        if p.enabled:
            p.count("shard_updates_total", shard=str(shard))
        return self._parts[shard].replace(object_id, plane)

    def remove(self, object_id: str) -> int:
        """Drop an object from its owner shard."""
        shard = self.owner_of(object_id)
        del self._owner[object_id]
        removed = self._parts[shard].remove(object_id)
        self._publish_size(shard)
        return removed

    def rebuilt(self, planes: dict[str, OPlane],
                **tuning: float) -> "PartitionedIndex":
        """Re-slab every shard in place; owners are kept."""
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
        """Union of every shard's candidates for one window."""
        pieces = [part.candidates_at(region, t, stats) for part in self._parts]
        self.observe_fanout(sum(1 for piece in pieces if piece))
        return set().union(*pieces)

    def candidates_at_many(self, windows: list[tuple[Rect2D, float]],
                           stats: SearchStats | None = None) -> list[set[str]]:
        """Candidate sets for many windows: one multi-search per shard."""
        found: list[set[str]] = [set() for _ in windows]
        answered = [0] * len(windows)
        for part in self._parts:
            for slot, piece in enumerate(
                    part.candidates_at_many(windows, stats)):
                if piece:
                    found[slot] |= piece
                    answered[slot] += 1
        for count in answered:
            self.observe_fanout(count)
        return found


__all__ = [
    "PartitionedIndex",
]
