"""Indexing experiments (E7, E8, E12).

* E7 — sublinearity: examined candidates per range query under the
  time-space index vs. the linear scan, across fleet sizes.
* E8 — may/must correctness: every must-object is truly inside the
  query region; no object outside the may-set is inside (soundness of
  Theorems 5–6 plus the conservative o-plane decomposition).
* E12 — index maintenance: boxes removed/inserted per position update
  (the §4.2 o-plane swap), plus the statistics of a tree swapped from
  its first insert (``bulk_build({})``; a plain index is STR-loaded).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro.dbms.database import MovingObjectDatabase
from repro.errors import ExperimentError
from repro.experiments.tables import TableResult
from repro.index.rtree import SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.sim.fleet import FleetSimulation
from repro.sim.speed_curves import CityCurve, HighwayCurve, SpeedCurve
from repro.workloads.query_workloads import polygon_query_workload
from repro.workloads.scenarios import _build_trip


@dataclass
class _BuiltFleet:
    database: MovingObjectDatabase
    fleet: FleetSimulation
    network: object
    end_time: float


def _simulate_fleet(num_objects: int, seed: int,
                    index: TimeSpaceIndex | None = None,
                    duration: float = 10.0, dt: float = 1.0 / 30.0,
                    policy_name: str = "ail",
                    update_cost: float = 5.0) -> _BuiltFleet:
    """A grid-city fleet, simulated to ``duration`` minutes over ``index``.

    A coarser tick than the policy experiments keeps large fleets fast;
    the indexing results do not depend on tick resolution.
    """
    from repro.core.policies import make_policy

    if num_objects < 1:
        raise ExperimentError("need at least one object")
    rng = random.Random(seed)
    # The grid must be large enough that random shortest paths can host
    # the longest trips (~0.8 mi/min highway cruise for the full run).
    blocks_for_trips = int(0.8 * duration / 0.25) + 4
    blocks = max(16, blocks_for_trips, int(num_objects ** 0.5) * 4)
    network = grid_city_network(blocks_x=blocks, blocks_y=blocks,
                                block_miles=0.25)
    database = MovingObjectDatabase(index=index, horizon=duration * 2)
    database.schema.define_mobile_point_class("vehicle")
    fleet = FleetSimulation(database, dt=dt)
    for i in range(num_objects):
        curve: SpeedCurve = (
            CityCurve(duration, rng, cruise=rng.uniform(0.3, 0.6))
            if i % 2 == 0
            else HighwayCurve(duration, rng, cruise=rng.uniform(0.4, 0.8))
        )
        fleet.add_vehicle(
            f"vehicle-{i}", "vehicle", _build_trip(network, curve, rng),
            make_policy(policy_name, update_cost),
        )
    fleet.run()
    return _BuiltFleet(
        database=database, fleet=fleet, network=network, end_time=duration
    )


def _build_fleet(num_objects: int, seed: int, maintained: bool = False,
                 **options: Any) -> _BuiltFleet:
    """:func:`_simulate_fleet`, indexed: through the §4.2 swap on every
    update from the first if ``maintained`` (E12), else STR-loaded once
    at the end."""
    built = _simulate_fleet(
        num_objects, seed,
        TimeSpaceIndex.bulk_build({}) if maintained else None, **options)
    if not maintained:
        built.database.rebuild_index()
    return built


def experiment_index_sublinearity(fleet_sizes: tuple[int, ...] = (100, 400, 1600),
                                  queries_per_size: int = 20,
                                  seed: int = 5) -> TableResult:
    """E7: candidates examined per query, index vs. linear scan."""
    rows: list[list[object]] = []
    for size in fleet_sizes:
        built = _build_fleet(size, seed)
        rng = random.Random(seed + size)
        polygons = polygon_query_workload(
            built.network, rng, queries_per_size, side_miles=(1.0, 2.0)
        )
        t = built.end_time
        examined_total = 0
        entries_total = 0
        answer_total = 0
        started = time.perf_counter()
        for polygon in polygons:
            stats = SearchStats()
            answer = built.database.range_query(polygon, t, stats)
            examined_total += answer.examined
            entries_total += stats.entries_tested
            answer_total += len(answer.may)
        index_seconds = time.perf_counter() - started
        rows.append(
            [
                size,
                examined_total / queries_per_size,
                size,  # linear scan examines everything, by definition
                (examined_total / queries_per_size) / size,
                answer_total / queries_per_size,
                index_seconds / queries_per_size * 1000.0,
            ]
        )
    return TableResult(
        experiment_id="E7",
        title="Range-query candidates: time-space index vs. linear scan",
        headers=["fleet size", "index candidates/query", "scan candidates/query",
                 "fraction examined", "avg |may|", "index ms/query"],
        rows=rows,
    )


def experiment_may_must_correctness(num_objects: int = 150,
                                    num_queries: int = 40,
                                    seed: int = 9) -> TableResult:
    """E8: validate may/must answers against ground truth."""
    built = _build_fleet(num_objects, seed)
    rng = random.Random(seed + 1)
    polygons = polygon_query_workload(
        built.network, rng, num_queries, side_miles=(1.0, 3.0)
    )
    t = built.end_time
    must_checked = 0
    may_checked = 0
    violations = 0
    inside_total = 0
    for polygon in polygons:
        answer = built.database.range_query(polygon, t)
        for object_id in built.database.object_ids():
            actual = built.fleet.actual_position(object_id, t)
            inside = polygon.contains_point(actual)
            inside_total += int(inside)
            if object_id in answer.must:
                must_checked += 1
                if not inside:
                    violations += 1
            elif object_id not in answer.may:
                may_checked += 1
                if inside:
                    violations += 1
    return TableResult(
        experiment_id="E8",
        title="May/must soundness vs. ground truth",
        headers=["quantity", "value"],
        rows=[
            ["queries", num_queries],
            ["objects", num_objects],
            ["must answers verified inside", must_checked],
            ["excluded objects verified outside", may_checked],
            ["ground-truth inside occurrences", inside_total],
            ["violations", violations],
        ],
    )


def experiment_index_maintenance(num_objects: int = 200,
                                 seed: int = 13) -> TableResult:
    """E12: cost of the §4.2 o-plane swap on position updates."""
    built = _build_fleet(num_objects, seed, maintained=True)
    index: TimeSpaceIndex = built.database._index
    tree = index.tree
    tree.check_invariants()
    total_messages = built.database.update_log.total_messages
    # Replay one object's current plane to measure a single swap.
    object_id = built.database.object_ids()[0]
    plane = built.database.oplane_of(object_id)
    # force=True: the plane is unchanged, so an unforced replace
    # would short-circuit; the experiment measures a full swap.
    swap = index.replace(object_id, plane, force=True)
    return TableResult(
        experiment_id="E12",
        title="Time-space index maintenance",
        headers=["quantity", "value"],
        rows=[
            ["objects indexed", len(index)],
            ["slab boxes stored", index.total_boxes()],
            ["tree height", tree.height],
            ["tree nodes", tree.node_count()],
            ["updates processed", total_messages],
            ["boxes removed per swap", swap.boxes_removed],
            ["boxes inserted per swap", swap.boxes_inserted],
        ],
    )

__all__ = [
    "experiment_index_maintenance",
    "experiment_index_sublinearity",
    "experiment_may_must_correctness",
]
