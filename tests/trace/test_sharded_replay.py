"""Sharded flight-recorder round trips and ``--shards`` overrides.

A sharded run records the same logical event stream as a single
database plus ``shard_route`` routing events; replay must reproduce
it byte-identically, verify shard routing, and — under a shard-count
override — still match every answer digest while skipping the checks
that legitimately depend on physical layout.
"""

from __future__ import annotations

import io
import os
import random

import pytest

from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import TraceError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.shard import uniform_grid_for
from repro.trace.events import (
    INDEX_DIGEST,
    INDEX_INSERT,
    INDEX_REPLACE,
    SCHEMA,
    SCHEMA_V1,
    SHARD_ROUTE,
)
from repro.trace.recorder import (
    TraceRecorder,
    read_trace,
    record_index_digest,
    use_recorder,
    write_trace,
)
from repro.trace.replay import MODES, TraceReplayer
from repro.workloads.query_workloads import mixed_query_workload

META = {"suite": "sharded-trace-roundtrip"}
QUERY_TIMES = (6.0, 8.0)


def record_sharded_session(num_shards=4):
    """Record a full sharded workload: build, update, batch, checkpoint."""
    with use_recorder(TraceRecorder(meta=dict(META))) as recorder:
        rng = random.Random(11)
        network = grid_city_network(6, 6, 0.5)
        database = MovingObjectDatabase(
            index=TimeSpaceIndex(),
            partitioning=uniform_grid_for(
                Rect2D(*network.bounding_extent()), num_shards
            ),
        )
        database.schema.define_mobile_point_class("taxi")
        object_ids = []
        for i in range(10):
            route = network.random_route(rng, min_length=0.5)
            database.register_route(route)
            direction = rng.randrange(2)
            object_id = f"taxi-{i}"
            database.insert_moving_object(
                object_id, "taxi", route.route_id, 0.0,
                route.travel_point(0.0, direction), direction,
                rng.uniform(0.1, 0.4), make_policy("ail", 5.0),
                max_speed=0.8,
            )
            object_ids.append(object_id)
        for object_id in object_ids[::2]:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, 4.0)
            database.process_update(PositionUpdateMessage(
                object_id, 4.0, position.x, position.y, speed=0.3,
            ))
        queries = mixed_query_workload(
            network, random.Random(7), 25, object_ids, QUERY_TIMES,
        )
        BatchQueryEngine(database).run(queries)
        database.nearest(Point(1.5, 1.5), 3, 8.0)
        record_index_digest(database)
    return recorder


def dump(recorder):
    buffer = io.StringIO()
    write_trace(recorder, buffer)
    return buffer.getvalue()


def load(text):
    return read_trace(io.StringIO(text))


class TestShardedRoundTrip:
    @pytest.mark.parametrize("mode", MODES)
    def test_sharded_trace_replays_in_every_mode(self, mode):
        _, events = load(dump(record_sharded_session()))
        assert SHARD_ROUTE in {event.kind for event in events}
        report = TraceReplayer(mode=mode).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.shard_checks == 10  # one per mobile insert
        assert report.index_checks == 1

    def test_replay_rerecords_the_identical_stream(self):
        text = dump(record_sharded_session())
        _, events = load(text)
        with use_recorder(TraceRecorder(meta=dict(META))) as second:
            report = TraceReplayer().replay(events)
        assert report.ok
        assert dump(second) == text

    def test_tampered_shard_route_detected(self):
        _, events = load(dump(record_sharded_session()))
        tampered = [
            event if event.kind != SHARD_ROUTE
            else type(event)(event.seq, event.kind, event.time,
                             event.object_id,
                             {**event.data, "shard": 99})
            for event in events
        ]
        report = TraceReplayer().replay(tampered)
        assert not report.ok
        assert "shard routing diverged" in report.mismatches[0].detail


class TestShardsOverride:
    @pytest.mark.parametrize("override", [1, 2, 3])
    def test_resharded_replay_keeps_answer_digests(self, override):
        # Re-partitioning changes the physical layout, never the
        # answers: every query digest must still match, while the
        # layout-dependent routing and index checks are skipped.
        _, events = load(dump(record_sharded_session()))
        report = TraceReplayer(shards=override).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.queries_checked > 25
        assert report.shard_checks == 0
        assert report.index_checks == 0

    def test_override_rejects_nonpositive_counts(self):
        with pytest.raises(TraceError, match="shards"):
            TraceReplayer(shards=0)


class TestSchemaCompatibility:
    def test_v2_is_the_written_schema(self):
        assert SCHEMA == "repro-trace/2"
        text = dump(record_sharded_session())
        header = text.splitlines()[0]
        assert SCHEMA in header

    def test_v1_traces_still_read_and_replay(self):
        # An unsharded v2 trace is a valid v1 stream: rewriting the
        # header must keep it readable (the reader accepts both).
        from tests.trace.test_replay import record_session
        text = dump(record_session(TimeSpaceIndex(slab_minutes=5.0)))
        downgraded = text.replace(SCHEMA, SCHEMA_V1, 1)
        assert SCHEMA_V1 in downgraded.splitlines()[0]
        _, events = load(downgraded)
        assert TraceReplayer().replay(events).ok


class TestFacadeRecordedTrace:
    """A trace the PR 14 sharded facade class wrote keeps replaying.

    ``data/sharded4_batch_pr14.jsonl`` is ``repro trace record --shards
    4 --batch --size 16 --duration 40 --queries 36`` at that commit: its
    ``shard_route`` values and ``index_digest`` checkpoint were written
    by the facade, and it carries no ``index_insert``/``replace`` events.
    """

    PATH = os.path.join(os.path.dirname(__file__), "data",
                        "sharded4_batch_pr14.jsonl")

    @pytest.mark.parametrize("mode", MODES)
    def test_replays_ok_with_every_routing_check(self, mode):
        _, events = read_trace(self.PATH)
        assert len(events) <= 150
        assert not {INDEX_INSERT, INDEX_REPLACE} & {e.kind for e in events}
        report = TraceReplayer(mode=mode).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.shard_checks == 16
        assert report.index_checks == 1
        assert report.queries_checked == 38

    def test_rerecording_keeps_every_facade_event(self):
        # The re-recorded stream is the old one plus the index
        # maintenance events a monolithic trace always carried;
        # db_config is field for field what the facade wrote.
        _, events = read_trace(self.PATH)
        with use_recorder(TraceRecorder()) as second:
            assert TraceReplayer().replay(events).ok
        derived = (INDEX_INSERT, INDEX_REPLACE, INDEX_DIGEST)
        kept = [(e.kind, e.time, e.object_id, dict(e.data))
                for e in second.events() if e.kind not in derived]
        assert kept == [(e.kind, e.time, e.object_id, dict(e.data))
                        for e in events if e.kind not in derived]
        assert INDEX_INSERT in {e.kind for e in second.events()}
