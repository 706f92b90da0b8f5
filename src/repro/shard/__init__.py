"""Spatial sharding for the moving-objects DBMS.

The scale-out layer: partition the plane into shards
(:mod:`repro.shard.partition`).  A sharded database is
``MovingObjectDatabase(index=..., partitioning=plan)``: its one index
holds every o-plane, and the plan gives each indexed object an owner
shard.
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
