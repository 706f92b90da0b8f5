"""E20's fan-out table against the sharded databases it describes.

E20 runs the corridor once, over a single ``TimeSpaceIndex`` with a
5-minute horizon, and counts for each query the distinct owners of its
candidates under each plan.  Here the same corridor runs, queries and
all, through ``MovingObjectDatabase(index=TimeSpaceIndex(),
partitioning=plan)`` at the default horizon under every one of E20's
plans: the fan-out the sharded database observes for each query (its
``shard_query_fanout`` histogram, read after every query) must be the
one E20 counts, in order, and the table's columns must summarise
exactly those.
"""

from __future__ import annotations

import math

import pytest

from repro.dbms.database import MovingObjectDatabase
from repro.experiments.sharding import (
    candidate_plans,
    owned_fanouts,
    run_corridor,
    table_sharding,
)
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import observe

SIZE = {"num_objects": 12, "num_updates": 8, "num_queries": 60}
SHARDS = 4
LABELS = ["uniform-1x4", "uniform-2x2", "uniform-4x1", "binary-split",
          "binary-split-midpoint"]


@pytest.fixture(scope="module")
def shortcut():
    """E20's shortcut, one run over a single index: insert-time o-planes
    and every query's answer."""
    return run_corridor(
        MovingObjectDatabase(index=TimeSpaceIndex(), horizon=5.0), **SIZE)


@pytest.fixture(scope="module")
def plans(shortcut):
    return dict(candidate_plans(shortcut[0], SHARDS))


def observed_fanouts(database):
    """Run the corridor through ``database``; each query's fan-out as
    its ``shard_query_fanout`` observation."""
    fanouts: list[int] = []
    ask = database.within_distance

    def within_distance(*args):
        histogram = p.registry.get("shard_query_fanout")
        before = histogram.sum if histogram is not None else 0.0
        answer = ask(*args)
        fanouts.append(int(p.registry.get("shard_query_fanout").sum - before))
        return answer

    database.within_distance = within_distance
    with observe(registry=True) as p:
        run_corridor(database, **SIZE)
        assert p.registry.value("shard_queries_total") == len(fanouts)
    return fanouts


@pytest.fixture(scope="module")
def measured(plans):
    """Per plan: objects per shard of the sharded database, and each
    query's fan-out."""
    found = {}
    for label, plan in plans.items():
        database = MovingObjectDatabase(index=TimeSpaceIndex(),
                                        partitioning=plan)
        assert database.horizon == 120.0
        fanouts = observed_fanouts(database)
        owners = [database.owner_of(object_id)
                  for object_id in database.object_ids()]
        sizes = [owners.count(shard) for shard in range(plan.num_shards)]
        found[label] = sizes, fanouts
    return found


@pytest.fixture(scope="module")
def table():
    return table_sharding(num_shards=SHARDS, **SIZE)


def test_e20_runs_every_candidate(plans):
    assert list(plans) == LABELS


@pytest.mark.parametrize("label", LABELS)
def test_the_shortcut_routes_as_the_sharded_database_does(
        shortcut, plans, measured, label):
    planes, answers = shortcut
    sizes, fanouts = measured[label]
    expected_sizes, expected = owned_fanouts(plans[label], planes, answers)
    assert len(fanouts) == SIZE["num_queries"]
    assert fanouts == expected
    assert sizes == expected_sizes


def test_the_table_summarises_the_sharded_database(measured, table):
    rows = {row[0].removesuffix(" (default)"): row for row in table.rows}
    assert sorted(rows) == sorted(LABELS)
    for label, (sizes, fanouts) in measured.items():
        ordered = sorted(fanouts)
        assert rows[label][1:] == [
            "/".join(map(str, sizes)),
            sum(fanouts) / len(fanouts),
            ordered[math.ceil(0.95 * len(ordered)) - 1],
            fanouts.count(1) / len(fanouts),
        ]


def test_rows_are_ordered_by_mean_fanout_then_candidate_order(table):
    keys = [(row[2], LABELS.index(row[0].removesuffix(" (default)")))
            for row in table.rows]
    assert keys == sorted(keys)


def test_sharding_table_marks_the_default_row(table):
    assert table.experiment_id == "E20"
    default_rows = [row[0] for row in table.rows if "(default)" in row[0]]
    assert default_rows == ["uniform-2x2 (default)"]
    assert "p95 fan-out" in table.headers
