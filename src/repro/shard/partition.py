"""Spatial partitionings: mapping positions to shard ids.

A :class:`Partitioning` divides the plane's bounding region into
``num_shards`` disjoint cells and assigns every point to exactly one
shard id.  Two families are provided:

* :class:`UniformGridPartitioning` — an ``nx x ny`` grid of equal
  cells over the bounding rectangle (the classic static choice);
* :class:`BinarySplitPartitioning` — a recursive binary split of the
  bounding rectangle.  :meth:`BinarySplitPartitioning.build` splits
  load-weighted: each node cuts its wider axis at the coordinate
  quantile that sends ``k // 2`` of the remaining shard budget to the
  low side, so dense regions receive proportionally more shards.

Points outside the bounding region clamp to the nearest cell, so every
position always has exactly one owner — a partitioning chosen from a
recorded trace stays total when live objects drift past the recorded
extent ("Evolving Distributions Under Local Motion": objects migrate
between cells over time).

Partitionings round-trip through JSON specs (:meth:`Partitioning.
to_spec` / :func:`partitioning_from_spec`) and shard-plan files
(:func:`save_plan` / :func:`load_plan`, schema ``repro-shard-plan/1``)
so a chosen plan can be handed to ``repro stats --shard-plan``.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ShardError, SpecReader, read_json_object
from repro.geometry.bbox import Rect2D

#: Shard-plan file schema identifier.
PLAN_SCHEMA = "repro-shard-plan/1"


def _bounds_to_spec(bounds: Rect2D) -> list[float]:
    return [bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y]


def _bounds_from_spec(fields: SpecReader) -> Rect2D:
    raw = fields.get("bounds", list)
    if len(raw) != 4 or not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in raw):
        raise fields.fail(
            f"field 'bounds' must be [min_x, min_y, max_x, max_y], got {raw!r}")
    return Rect2D(*map(float, raw))


class Partitioning(ABC):
    """A total assignment of plane positions to shard ids ``0..n-1``."""

    #: Spec discriminator; subclasses override.
    kind: str = "abstract"

    def __init__(self, bounds: Rect2D, num_shards: int) -> None:
        if num_shards < 1:
            raise ShardError(f"num_shards must be positive, got {num_shards}")
        self.bounds = bounds
        self.num_shards = num_shards

    @abstractmethod
    def shard_of_point(self, x: float, y: float) -> int:
        """The owning shard of ``(x, y)`` (clamped into the bounds)."""

    @abstractmethod
    def to_spec(self) -> dict[str, Any]:
        """A JSON-safe spec that :func:`partitioning_from_spec` accepts."""


class UniformGridPartitioning(Partitioning):
    """An ``nx x ny`` grid of equal cells; ids are row-major."""

    kind = "uniform"

    def __init__(self, bounds: Rect2D, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ShardError(f"grid shape must be positive, got {nx}x{ny}")
        super().__init__(bounds, nx * ny)
        self.nx = nx
        self.ny = ny

    def _column_of(self, x: float) -> int:
        width = self.bounds.width
        if width <= 0.0:
            return 0
        col = int((x - self.bounds.min_x) / width * self.nx)
        return min(max(col, 0), self.nx - 1)

    def _row_of(self, y: float) -> int:
        height = self.bounds.height
        if height <= 0.0:
            return 0
        row = int((y - self.bounds.min_y) / height * self.ny)
        return min(max(row, 0), self.ny - 1)

    def shard_of_point(self, x: float, y: float) -> int:
        return self._row_of(y) * self.nx + self._column_of(x)

    def to_spec(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "bounds": _bounds_to_spec(self.bounds),
            "nx": self.nx,
            "ny": self.ny,
        }

    def __repr__(self) -> str:
        return f"UniformGridPartitioning({self.nx}x{self.ny})"


@dataclass(frozen=True, slots=True)
class _SplitNode:
    """One internal node of a binary split: cut ``axis`` at ``cut``.

    ``low``/``high`` are either child nodes or leaf shard ids (ints).
    Points with coordinate strictly below the cut go low; the cut line
    itself belongs to the high side, keeping ownership deterministic.
    """

    axis: int
    cut: float
    low: "_SplitNode | int"
    high: "_SplitNode | int"


class BinarySplitPartitioning(Partitioning):
    """A recursive binary split of the bounding rectangle.

    Leaf ids are assigned in low-before-high depth-first order, so a
    spec round-trip reproduces the identical id assignment.
    """

    kind = "binary_split"

    def __init__(self, bounds: Rect2D, root: "_SplitNode | int") -> None:
        leaves: set[int] = set()
        _collect_leaves(root, bounds, leaves)
        leaf_ids = sorted(leaves)
        if leaf_ids != list(range(len(leaf_ids))):
            raise ShardError(
                f"binary split leaves must be ids 0..n-1, got {leaf_ids}"
            )
        super().__init__(bounds, len(leaf_ids))
        self.root = root

    @classmethod
    def build(cls, bounds: Rect2D, points: Sequence[tuple[float, float]],
              num_shards: int) -> "BinarySplitPartitioning":
        """Greedy load-weighted split of ``bounds`` into ``num_shards``.

        ``points`` is the load sample (e.g. recorded update positions).
        Each node sends ``k // 2`` of its shard budget to the low side
        and cuts its wider axis at the matching load quantile, falling
        back to the spatial midpoint when the sample is empty or
        degenerate there.
        """
        if num_shards < 1:
            raise ShardError(f"num_shards must be positive, got {num_shards}")
        counter = _LeafCounter()
        root = _build_split(bounds, [(float(x), float(y)) for x, y in points],
                            num_shards, counter, midpoint=False)
        return cls(bounds, root)

    @classmethod
    def build_midpoint(cls, bounds: Rect2D,
                       num_shards: int) -> "BinarySplitPartitioning":
        """A load-agnostic variant: every cut is the spatial midpoint."""
        if num_shards < 1:
            raise ShardError(f"num_shards must be positive, got {num_shards}")
        counter = _LeafCounter()
        root = _build_split(bounds, [], num_shards, counter, midpoint=True)
        return cls(bounds, root)

    def shard_of_point(self, x: float, y: float) -> int:
        node: _SplitNode | int = self.root
        while isinstance(node, _SplitNode):
            coordinate = x if node.axis == 0 else y
            node = node.low if coordinate < node.cut else node.high
        return node

    def to_spec(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "bounds": _bounds_to_spec(self.bounds),
            "root": _node_to_spec(self.root),
        }

    def __repr__(self) -> str:
        return f"BinarySplitPartitioning(num_shards={self.num_shards})"


class _LeafCounter:
    """Depth-first leaf id assignment for :func:`_build_split`."""

    def __init__(self) -> None:
        self.next_id = 0

    def take(self) -> int:
        leaf = self.next_id
        self.next_id += 1
        return leaf


def _build_split(rect: Rect2D, points: list[tuple[float, float]], k: int,
                 counter: _LeafCounter, midpoint: bool) -> "_SplitNode | int":
    if k == 1:
        return counter.take()
    axis = 0 if rect.width >= rect.height else 1
    lo_edge = rect.min_x if axis == 0 else rect.min_y
    hi_edge = rect.max_x if axis == 0 else rect.max_y
    k_low = k // 2
    cut = (lo_edge + hi_edge) / 2.0
    if not midpoint and points:
        coords = sorted(p[axis] for p in points)
        quantile = coords[min(len(coords) - 1,
                              (len(coords) * k_low) // k)]
        if lo_edge < quantile < hi_edge:
            cut = quantile
    low_points = [p for p in points if p[axis] < cut]
    high_points = [p for p in points if p[axis] >= cut]
    low_rect, high_rect = _halves(rect, axis, cut)
    low = _build_split(low_rect, low_points, k_low, counter, midpoint)
    high = _build_split(high_rect, high_points, k - k_low, counter, midpoint)
    return _SplitNode(axis=axis, cut=cut, low=low, high=high)


def _halves(rect: Rect2D, axis: int, cut: float) -> tuple[Rect2D, Rect2D]:
    """``rect`` cut at ``cut`` across ``axis``: ``(low, high)``."""
    if axis == 0:
        return (Rect2D(rect.min_x, rect.min_y, cut, rect.max_y),
                Rect2D(cut, rect.min_y, rect.max_x, rect.max_y))
    return (Rect2D(rect.min_x, rect.min_y, rect.max_x, cut),
            Rect2D(rect.min_x, cut, rect.max_x, rect.max_y))


def _collect_leaves(node: "_SplitNode | int", rect: Rect2D,
                    leaves: set[int]) -> None:
    """Add the leaf ids under ``node`` to ``leaves``, rejecting a leaf
    that appears twice, a bad axis or a cut outside its cell ``rect``."""
    if isinstance(node, int):
        if node in leaves:
            raise ShardError(f"binary split leaf id {node} appears twice")
        leaves.add(node)
        return
    if node.axis not in (0, 1):
        raise ShardError(f"split axis must be 0 or 1, got {node.axis!r}")
    lo, hi = ((rect.min_x, rect.max_x) if node.axis == 0
              else (rect.min_y, rect.max_y))
    if not lo <= node.cut <= hi:
        raise ShardError(f"split cut {node.cut} outside cell "
                         f"{'xy'[node.axis]}-range [{lo}, {hi}]")
    low_rect, high_rect = _halves(rect, node.axis, node.cut)
    _collect_leaves(node.low, low_rect, leaves)
    _collect_leaves(node.high, high_rect, leaves)


def _node_to_spec(node: "_SplitNode | int") -> Any:
    if isinstance(node, int):
        return node
    return {
        "axis": node.axis,
        "cut": node.cut,
        "low": _node_to_spec(node.low),
        "high": _node_to_spec(node.high),
    }


def _node_from_spec(raw: Any) -> "_SplitNode | int":
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    fields = SpecReader(raw, ShardError, "split node")
    return _SplitNode(
        axis=fields.get("axis", int),
        cut=float(fields.number("cut")),
        low=_node_from_spec(fields.get("low", (int, dict))),
        high=_node_from_spec(fields.get("high", (int, dict))),
    )


def partitioning_from_spec(spec: dict[str, Any]) -> Partitioning:
    """Rebuild a partitioning from its :meth:`~Partitioning.to_spec`."""
    fields = SpecReader(spec, ShardError, "partitioning spec")
    kind = spec.get("kind")
    bounds = _bounds_from_spec(fields)
    if kind == UniformGridPartitioning.kind:
        return UniformGridPartitioning(
            bounds, fields.get("nx", int), fields.get("ny", int))
    if kind == BinarySplitPartitioning.kind:
        return BinarySplitPartitioning(
            bounds, _node_from_spec(fields.get("root", (int, dict))))
    raise ShardError(f"unknown partitioning kind {kind!r}")


def uniform_grid_for(bounds: Rect2D, num_shards: int) -> UniformGridPartitioning:
    """The squarest ``nx x ny`` uniform grid with ``nx * ny == num_shards``."""
    if num_shards < 1:
        raise ShardError(f"num_shards must be positive, got {num_shards}")
    best_nx = 1
    for nx in range(1, num_shards + 1):
        if num_shards % nx == 0:
            ny = num_shards // nx
            if abs(nx - ny) <= abs(best_nx - num_shards // best_nx):
                best_nx = nx
    return UniformGridPartitioning(bounds, best_nx, num_shards // best_nx)


def grid_shapes(num_shards: int) -> list[tuple[int, int]]:
    """Every ``(nx, ny)`` factorisation of ``num_shards``, ascending nx."""
    if num_shards < 1:
        raise ShardError(f"num_shards must be positive, got {num_shards}")
    return [(nx, num_shards // nx) for nx in range(1, num_shards + 1)
            if num_shards % nx == 0]


def save_plan(partitioning: Partitioning, path: str,
              meta: dict[str, Any] | None = None) -> None:
    """Write a shard-plan file (:data:`PLAN_SCHEMA`) for ``--shard-plan``."""
    document = {
        "schema": PLAN_SCHEMA,
        "partitioning": partitioning.to_spec(),
        "meta": dict(meta or {}),
    }
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ShardError(f"cannot write shard plan {path!r}: {exc}") from exc


def load_plan(path: str) -> Partitioning:
    """Load a shard-plan file written by :func:`save_plan`."""
    document = read_json_object(path, ShardError, "shard plan")
    if document.get("schema") != PLAN_SCHEMA:
        raise ShardError(
            f"unsupported shard-plan schema in {path!r}; "
            f"this build reads {PLAN_SCHEMA}"
        )
    fields = SpecReader(document, ShardError, "shard plan")
    return partitioning_from_spec(fields.get("partitioning", dict))


__all__ = [
    "BinarySplitPartitioning",
    "PLAN_SCHEMA",
    "Partitioning",
    "UniformGridPartitioning",
    "grid_shapes",
    "load_plan",
    "partitioning_from_spec",
    "save_plan",
    "uniform_grid_for",
]
