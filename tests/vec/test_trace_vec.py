"""Record -> replay byte-identity through the vectorized query path.

A workload recorded while the vectorized engine answers queries must
produce the exact event stream of a scalar recording (same answer
digests, same cache event), and must replay cleanly in every mode.
"""

import io

import pytest

pytest.importorskip("numpy")

from repro.dbms import refine as refine_module
from repro.dbms.batch import BatchQueryEngine
from repro.index.timespace import TimeSpaceIndex
from repro.trace.recorder import (
    TraceRecorder,
    read_trace,
    record_index_digest,
    use_recorder,
    write_trace,
)
from repro.trace.replay import MODES, TraceReplayer

from tests.dbms.test_batch import build_database, build_workload


def record_batch_session():
    with use_recorder(TraceRecorder(meta={"suite": "vec-trace"})) as rec:
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        queries = build_workload(network, object_ids, count=30)
        BatchQueryEngine(database).run(queries)
        record_index_digest(database)
    return rec


def dump_events(recorder):
    buffer = io.StringIO()
    write_trace(recorder, buffer)
    return read_trace(io.StringIO(buffer.getvalue()))[1]


@pytest.fixture
def floor(monkeypatch):
    """Set the query core's candidate floor: 1 forces the bulk
    pre-tests on, infinity off."""
    return lambda value: monkeypatch.setattr(
        refine_module, "_MIN_VEC_CANDIDATES", value)


def test_vectorized_recording_matches_scalar_stream(floor):
    floor(float("inf"))
    scalar = dump_events(record_batch_session())
    floor(1)
    vec = dump_events(record_batch_session())
    assert [(e.kind, e.data) for e in vec] \
        == [(e.kind, e.data) for e in scalar]


@pytest.mark.parametrize("mode", MODES)
def test_vectorized_recording_replays_in_every_mode(mode, floor):
    floor(1)
    events = dump_events(record_batch_session())
    report = TraceReplayer(mode=mode).replay(events)
    assert report.ok, report.mismatches[:3]
    assert report.queries_checked >= 30
