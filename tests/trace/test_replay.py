"""Round-trip determinism tests: record -> replay -> re-record.

The flight recorder's contract is that a recorded workload replays
against a *fresh* database with byte-identical answer digests, in every
replay mode, and that replaying under a fresh recorder reproduces the
recorded event stream exactly (record/replay is a fixed point).
"""

import io

import pytest

from repro.cli import main as cli_main
from repro.core.policies import make_policy
from repro.core.serialize import policy_to_spec
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import SchemaError, TraceError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.index.scan import LinearScanIndex
from repro.index.timespace import TimeSpaceIndex
from repro.shard import UniformGridPartitioning
from repro.trace.events import (
    CLASS_DEFINE,
    DB_CONFIG,
    INDEX_CONFIG,
    INSERT_MOBILE,
    INSERT_STATIONARY,
    QUERY,
    ROUTE_REGISTER,
    TraceEvent,
    UPDATE,
)
from repro.trace.recorder import (
    TraceRecorder,
    read_trace,
    record_index_digest,
    use_recorder,
    write_trace,
)
from repro.trace.replay import MODES, TraceReplayer

from tests.dbms.test_batch import (
    RECORD_CHANGES,
    build_database,
    build_workload,
    every_query_kind,
    memo_free,
    one_at_a_time,
)
from tests.index.test_lazy_tree import count_tree_work

META = {"suite": "trace-roundtrip"}


def record_session(index, batch=False):
    """Record a full workload: build, update, query, checkpoint."""
    with use_recorder(TraceRecorder(meta=dict(META))) as recorder:
        database, network, object_ids = build_database(index)
        for object_id in object_ids[:4]:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, 5.0)
            database.process_update(PositionUpdateMessage(
                object_id, 5.0, position.x, position.y, speed=0.3,
            ))
        queries = build_workload(network, object_ids, count=30)
        if batch:
            BatchQueryEngine(database).run(queries)
        else:
            one_at_a_time(database, queries)
        database.nearest(Point(1.5, 1.5), 3, 10.0)
        database.within_distance_of_object(object_ids[0], 1.0, 10.0)
        record_index_digest(database)
    return recorder


def dump(recorder):
    buffer = io.StringIO()
    write_trace(recorder, buffer)
    return buffer.getvalue()


def load(text):
    return read_trace(io.StringIO(text))


class TestReplayRoundTrip:
    @pytest.mark.parametrize("mode", MODES)
    def test_sequential_trace_replays_in_every_mode(self, mode):
        recorder = record_session(TimeSpaceIndex(slab_minutes=5.0))
        _, events = load(dump(recorder))
        report = TraceReplayer(mode=mode).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.events_total == len(events)
        assert report.queries_checked > 30
        assert report.index_checks == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_batch_trace_replays_in_every_mode(self, mode):
        recorder = record_session(TimeSpaceIndex(slab_minutes=5.0),
                                  batch=True)
        _, events = load(dump(recorder))
        batch_queries = [e for e in events if e.kind == QUERY
                         and e.data.get("engine") == "batch"]
        # 30 position/range/within queries and 3 proximity ones.
        assert len(batch_queries) == 33
        assert "proximity" in {e.data["kind"] for e in batch_queries}
        assert {e.data["batch"] for e in batch_queries} == {0}
        report = TraceReplayer(mode=mode).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.queries_checked > 30

    def test_trace_contains_update_events(self):
        recorder = record_session(TimeSpaceIndex(slab_minutes=5.0))
        kinds = {event.kind for event in recorder.events()}
        assert UPDATE in kinds

    def test_without_index_replays(self):
        recorder = record_session(None)
        _, events = load(dump(recorder))
        report = TraceReplayer().replay(events)
        assert report.ok
        assert report.index_checks == 0  # no index, no checkpoint

    def test_linear_scan_index_replays(self):
        recorder = record_session(LinearScanIndex())
        _, events = load(dump(recorder))
        assert TraceReplayer().replay(events).ok

    def test_index_retune_mid_stream_replays(self):
        # Retuning the slab width swaps the whole index; the range
        # digests include examined-candidate counts, so replay only
        # succeeds if the swap is itself a recorded event (the E19
        # experiment relies on this).
        with use_recorder(TraceRecorder(meta=dict(META))) as recorder:
            database, network, object_ids = build_database(
                TimeSpaceIndex(slab_minutes=5.0)
            )
            queries = build_workload(network, object_ids, count=10)
            one_at_a_time(database, queries)
            database.rebuild_index(slab_minutes=1.0)
            one_at_a_time(database, queries)
            record_index_digest(database)
        text = dump(recorder)
        _, events = load(text)
        assert INDEX_CONFIG in {event.kind for event in events}
        with use_recorder(TraceRecorder(meta=dict(META))) as second:
            report = TraceReplayer().replay(events)
        assert report.ok, report.mismatches[:3]
        assert dump(second) == text


class TestStartTravelMemo:
    @pytest.mark.parametrize("mode", MODES)
    def test_memo_free_recording_replays_with_the_memo(self, mode):
        """Digests recorded without the record memo replay with it:
        route changes, re-inserted ids and both engines included."""
        with memo_free(), use_recorder(
                TraceRecorder(meta=dict(META))) as recorder:
            database, network, object_ids = build_database(
                TimeSpaceIndex(slab_minutes=5.0)
            )
            engine = BatchQueryEngine(database)
            queries = build_workload(network, object_ids, count=20)
            for change in ("route-and-direction", "remove-and-reinsert",
                           "policy-only"):
                engine.run(queries)
                RECORD_CHANGES[change](database, object_ids)
                every_query_kind(database, object_ids)
            engine.run(queries)
            record_index_digest(database)
        _, events = load(dump(recorder))
        report = TraceReplayer(mode=mode).replay(events)
        assert report.ok, report.mismatches[:3]
        assert report.queries_checked > 80


class TestReRecordIdentity:
    @pytest.mark.parametrize("batch", [False, True])
    def test_replay_rerecords_the_identical_stream(self, batch):
        first = record_session(TimeSpaceIndex(slab_minutes=5.0),
                               batch=batch)
        text = dump(first)
        _, events = load(text)
        with use_recorder(TraceRecorder(meta=dict(META))) as second:
            report = TraceReplayer().replay(events)
        assert report.ok
        assert dump(second) == text


class TestMismatchDetection:
    def tampered(self, predicate, **overrides):
        recorder = record_session(TimeSpaceIndex(slab_minutes=5.0))
        _, events = load(dump(recorder))
        tampered = []
        hit = False
        for event in events:
            if not hit and predicate(event):
                hit = True
                event = TraceEvent(
                    event.seq, event.kind, event.time, event.object_id,
                    {**event.data, **overrides},
                )
            tampered.append(event)
        assert hit
        return tampered

    def test_tampered_query_digest_detected(self):
        events = self.tampered(
            lambda e: e.kind == QUERY, digest="0" * 64,
        )
        report = TraceReplayer().replay(events)
        assert not report.ok
        (mismatch,) = report.mismatches
        assert mismatch.kind == QUERY
        assert mismatch.expected == "0" * 64
        assert mismatch.actual != mismatch.expected

    def test_tampered_index_digest_detected(self):
        events = self.tampered(
            lambda e: e.kind == "index_digest", digest="0" * 64,
        )
        report = TraceReplayer().replay(events)
        assert not report.ok
        assert report.index_checks == 1
        assert "index" in report.mismatches[0].detail

    def test_tampered_update_diverges_downstream(self):
        # Corrupting one update's speed must surface as at least one
        # diverging answer digest later in the trace.
        events = self.tampered(lambda e: e.kind == UPDATE, speed=0.9)
        report = TraceReplayer().replay(events)
        assert not report.ok


class TestReplayerValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(TraceError, match="unknown replay mode"):
            TraceReplayer(mode="warp")

    def test_event_before_db_config_rejected(self):
        orphan = TraceEvent(0, QUERY, time=1.0, object_id="t-0",
                            data={"kind": "position", "digest": "d"})
        with pytest.raises(TraceError, match="before any"):
            TraceReplayer().replay([orphan])

    @pytest.mark.parametrize("shards", [None, 2])
    def test_mobile_insert_over_a_stationary_id_is_a_domain_error(
            self, shards, tmp_path, capsys):
        """A hand-written stream re-using a stationary id for a mobile
        object surfaces as a ``repro.errors`` type, not a traceback."""
        config = {"horizon": 120.0, "index": "TimeSpaceIndex",
                  "slab_minutes": 5.0}
        if shards is not None:
            config.update(shards=shards, partitioning=UniformGridPartitioning(
                Rect2D(0.0, -1.0, 4.0, 1.0), shards, 1).to_spec())
        stream = TraceRecorder()
        stream.record(DB_CONFIG, **config)
        for name, mobility in (("depot", "stationary"), ("taxi", "mobile")):
            stream.record(CLASS_DEFINE, name=name, spatial_kind="point",
                          mobility=mobility, attributes=[])
        stream.record(ROUTE_REGISTER, route_id="r", name=None,
                      vertices=[[0.0, 0.0], [4.0, 0.0]])
        stream.record(INSERT_STATIONARY, object_id="x", class_name="depot",
                      position=[1.0, 0.0], attributes=None)
        stream.record(INSERT_MOBILE, time=0.0, object_id="x",
                      class_name="taxi", route_id="r", position=[1.0, 0.0],
                      direction=0, speed=0.5, max_speed=1.0, attributes=None,
                      policy=policy_to_spec(make_policy("dl", 5.0)))
        with pytest.raises(SchemaError, match="duplicate object id 'x'"):
            TraceReplayer().replay(stream.events())

        path = str(tmp_path / "shadow.jsonl")
        write_trace(stream, path)
        assert cli_main(["trace", "replay", path], out=io.StringIO()) == 1
        assert "error: duplicate object id 'x'" in capsys.readouterr().err


class TestReplayTreeWork:
    """A recorded fleet writes all its o-planes before its first query,
    so a replay's index keeps only its content until then and loads the
    tree once, by STR: no R-tree insert or delete.  The same replay
    swapped 103 inserts and 36 deletes through the tree when every write
    was the §4.2 swap; the tree holds the same 47 slab runs either way."""

    def test_one_bulk_load_per_replay(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ci.jsonl")
        assert cli_main(["trace", "record", "--size", "8", "--duration",
                         "12", "--seed", "11", "--queries", "25",
                         "--out", path], out=io.StringIO()) == 0
        calls = count_tree_work(monkeypatch)
        for mode in MODES:
            calls.update(insert=0, delete=0, bulk_load=0)
            replayer = TraceReplayer(mode=mode)
            report = replayer.replay_file(path)
            assert report.ok and report.index_checks == 1, mode
            assert calls == {"insert": 0, "delete": 0, "bulk_load": 1}, mode
            assert replayer._db._index.total_boxes() == 47
