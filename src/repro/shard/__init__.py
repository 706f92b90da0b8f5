"""Spatial sharding for the moving-objects DBMS.

The scale-out layer: partition the plane into shards
(:mod:`repro.shard.partition`) and lay the database's index out over
N shards, each searched by its own tree (:mod:`repro.shard.sharded`).
"""

from repro.shard.partition import (
    PLAN_SCHEMA,
    BinarySplitPartitioning,
    Partitioning,
    UniformGridPartitioning,
    grid_shapes,
    load_plan,
    partitioning_from_spec,
    save_plan,
    uniform_grid_for,
)
from repro.shard.sharded import PartitionedIndex

__all__ = [
    "BinarySplitPartitioning",
    "PLAN_SCHEMA",
    "PartitionedIndex",
    "Partitioning",
    "UniformGridPartitioning",
    "grid_shapes",
    "load_plan",
    "partitioning_from_spec",
    "save_plan",
    "uniform_grid_for",
]
