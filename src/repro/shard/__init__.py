"""Cost-model-driven spatial sharding for the moving-objects DBMS.

The scale-out layer: partition the plane into shards
(:mod:`repro.shard.partition`), score candidate partitionings against
a recorded workload (:mod:`repro.shard.cost`), search for the cheapest
one (:mod:`repro.shard.search`), and lay the database's index out over
N shards with sound fan-out pruning (:mod:`repro.shard.sharded`; the
batch engine's fork pool lives in :mod:`repro.shard.parallel`).
"""

from repro.shard.cost import (
    CostBreakdown,
    QueryOp,
    ShardCostModel,
    TraceWorkload,
    UpdateOp,
    measured_fanouts,
    percentile,
    workload_from_events,
    workload_from_trace,
)
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
from repro.shard.search import PartitionSearcher, ScoredPartitioning
from repro.shard.sharded import PartitionedIndex

__all__ = [
    "BinarySplitPartitioning",
    "CostBreakdown",
    "PLAN_SCHEMA",
    "PartitionSearcher",
    "PartitionedIndex",
    "Partitioning",
    "QueryOp",
    "ScoredPartitioning",
    "ShardCostModel",
    "TraceWorkload",
    "UniformGridPartitioning",
    "UpdateOp",
    "grid_shapes",
    "load_plan",
    "measured_fanouts",
    "partitioning_from_spec",
    "percentile",
    "save_plan",
    "uniform_grid_for",
    "workload_from_events",
    "workload_from_trace",
]
