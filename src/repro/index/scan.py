"""Linear-scan baseline for range queries.

The strawman §4 argues against: answering a range query by examining
*every* object.  It shares the :class:`TimeSpaceIndex` candidate
interface so the query processor and the benchmarks can swap the two
implementations and compare examined-object counts directly.
"""

from __future__ import annotations

from typing import Any

from repro.errors import IndexError_
from repro.geometry.bbox import Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import SearchStats
from repro.index.timespace import TimeSpaceIndex


class LinearScanIndex:
    """Stores o-planes but always reports every object as a candidate."""

    def __init__(self) -> None:
        self._planes: dict[str, OPlane] = {}

    def __len__(self) -> int:
        return len(self._planes)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._planes

    def plane_of(self, object_id: str) -> OPlane:
        try:
            return self._planes[object_id]
        except KeyError:
            raise IndexError_(f"object {object_id!r} is not indexed") from None

    def insert(self, object_id: str, plane: OPlane) -> int:
        if object_id in self._planes:
            raise IndexError_(
                f"object {object_id!r} already indexed; use replace()"
            )
        self._planes[object_id] = plane
        return 1

    def remove(self, object_id: str) -> int:
        if object_id not in self._planes:
            raise IndexError_(f"object {object_id!r} is not indexed")
        del self._planes[object_id]
        return 1

    def replace(self, object_id: str, plane: OPlane) -> None:
        self._planes[object_id] = plane

    def candidates_at(self, region: Rect2D, t: float,
                      stats: SearchStats | None = None) -> set[str]:
        """Every stored object is a candidate — the O(n) baseline."""
        if stats is not None:
            stats.nodes_visited += 1
            stats.entries_tested += len(self._planes)
            stats.results += len(self._planes)
        return set(self._planes)

    def candidates_at_many(self, windows: list[tuple[Rect2D, float]],
                           stats: SearchStats | None = None) -> list[set[str]]:
        return [self.candidates_at(region, t, stats) for region, t in windows]

    def content_digest(self, object_ids: Any = None) -> None:
        """The baseline keeps no tree to digest (replay skips the check)."""
        return None

    def describe(self) -> dict[str, Any]:
        """The ``db_config`` trace fields that rebuild this index."""
        return {"index": type(self).__name__}

    def rebuilt(self, planes: dict[str, OPlane],
                **tuning: float) -> TimeSpaceIndex:
        """A rebuild swaps the baseline for the §4.2 index."""
        return TimeSpaceIndex.bulk_build(planes, **tuning)

    def object_ids(self) -> list[str]:
        return list(self._planes)

__all__ = [
    "LinearScanIndex",
]
