"""Hostile trace and snapshot files: every malformed field is an error line.

A small recorded trace and a saved snapshot are corrupted one field at
a time — each required key dropped, one wrong-typed value, one unknown
enum or policy name per record kind.  A trace is handed to ``repro
trace replay``, which must exit 1 with a single ``error: ...`` line on
stderr.  A snapshot is read back with ``load_database`` and asked for
one position, which must raise a :mod:`repro.errors` error: the one
decoder of each record turns the bad field into that error, and no
other exception escapes.
"""

import copy
import io
import json

import pytest

from repro.cli import main
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.persistence import load_database
from repro.dbms.schema import Mobility, ObjectClass, SpatialKind
from repro.errors import ReproError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.shard import save_plan, uniform_grid_for
from repro.trace.recorder import TraceRecorder, use_recorder
from tests.conftest import deadline

#: Trace record kinds: (label, event kind, query kind, keys to drop,
#: [(key, wrong-typed value)], (key, unknown enum or policy name)).
#: A key is a dotted path into the event (``data.policy.name``).
TRACE_RECORDS = [
    ("class_define", "class_define", None,
     ["data.name", "data.spatial_kind", "data.mobility"],
     [("data.attributes", "free"), ("data.name", 5)],
     ("data.spatial_kind", "blob")),
    ("route_register", "route_register", None,
     ["data.route_id", "data.vertices"],
     [("data.vertices", [[0.0, "x"], [1.0, 1.0]])], None),
    ("db_config", "db_config", None, [],
     [("data.horizon", "long"), ("data.slab_minutes", "wide")], None),
    ("index_config", "index_config", None, [],
     [("data.slab_minutes", "wide"), ("data.max_entries", "many"),
      ("data.min_entries", 2.5)], None),
    ("insert_mobile", "insert_mobile", None,
     ["time", "object_id", "data.class_name", "data.route_id",
      "data.position", "data.direction", "data.speed", "data.max_speed"],
     [("data.position", "abc"), ("data.speed", "fast")], None),
    ("insert_mobile_point", "insert_mobile", None, [],
     [("data.position", [1.0, "x"])], None),
    ("insert_stationary", "insert_stationary", None,
     ["object_id", "data.class_name", "data.position"],
     [("data.position", "abc"), ("data.attributes", "free")], None),
    ("insert_mobile_policy", "insert_mobile", None,
     ["data.policy", "data.policy.name", "data.policy.update_cost"],
     [("data.policy.update_cost", "abc"), ("data.policy.bound", 1.0)],
     ("data.policy.name", "psychic")),
    ("update", "update", None,
     ["time", "object_id", "data.x", "data.y", "data.speed"],
     [("data.speed", "fast"), ("data.direction", "left")],
     ("data.policy", "psychic")),
    ("position_query", "query", "position",
     ["time", "object_id", "data.kind"], [("time", "soon")],
     ("data.kind", "psychic")),
    ("range_query", "query", "range", ["data.polygon"],
     [("data.polygon", "abc"), ("data.where", "free")],
     ("data.kind", "psychic")),
    ("within_query", "query", "within", ["data.center", "data.radius"],
     [("data.radius", "far"), ("data.center", [1.0])],
     ("data.kind", "psychic")),
    ("proximity_query", "query", "proximity",
     ["object_id", "data.radius"], [("data.radius", [1.0])],
     ("data.kind", "psychic")),
    ("nearest_query", "query", "nearest", ["data.center", "data.k"],
     [("data.k", "three"), ("data.class_name", 7)],
     ("data.kind", "psychic")),
]

#: Snapshot record kinds: (section, keys to drop, wrong values, enum).
SNAPSHOT_RECORDS = [
    ("routes", ["route_id", "vertices"], [("vertices", "abc")], None),
    ("classes", ["name", "spatial_kind", "mobility"],
     [("name", 5), ("attributes", [{"name": "free", "type": 5}])],
     ("mobility", "teleport")),
    ("records",
     ["object_id", "class_name", "max_speed", "policy", "attribute",
      "policy.name", "policy.update_cost", "attribute.starttime",
      "attribute.route_id", "attribute.start_x", "attribute.start_y",
      "attribute.direction", "attribute.speed", "attribute.policy"],
     [("max_speed", "fast"), ("attribute.direction", "north")],
     ("policy.name", "psychic")),
    ("update_log", ["object_id", "time", "x", "y", "speed"],
     [("speed", "fast"), ("direction", 7)], ("policy", "psychic")),
]

#: Corruptions of a partitioning, as a dotted path into a shard-plan
#: file (a sharded trace's ``db_config`` carries the same spec).
PLAN_CORRUPTIONS = [
    pytest.param("partitioning.bounds", ["a", 0, 1, 1], id="bounds-text"),
    pytest.param("partitioning.bounds", [None, 0, 1, 1], id="bounds-null"),
    pytest.param("partitioning", ..., id="drop-partitioning"),
]

#: Horizons that parse as JSON numbers but index no o-plane: ``NaN``
#: lays no slab, ``Infinity`` lays slabs forever.
NON_FINITE = [pytest.param(float("nan"), id="nan"),
              pytest.param(float("inf"), id="inf")]
#: A run that takes longer than this counts as a hang.
DEADLINE_S = 1.0

#: Whole-document keys of a snapshot.
SNAPSHOT_KEYS = ["horizon", "clock_time", "routes", "classes", "records",
                 "stationary", "update_log"]


def cases(records):
    """``pytest.param(label, path, value)`` per corruption of each
    record kind; a ``value`` of ``...`` drops the key."""
    for record in records:
        label, (drops, wrong, enum) = record[0], record[-3:]
        changes = [(key, ...) for key in drops] + wrong
        if enum is not None:
            changes.append(enum)
        for key, value in changes:
            how = "drop" if value is ... else "set"
            yield pytest.param(label, key, value,
                               id=f"{label}-{how}-{key}")


def mutate(document, path, value):
    *parents, last = path.split(".")
    for key in parents:
        document = document[key]
    if value is ...:
        del document[last]
    else:
        document[last] = value


def run_failing(argv, capsys):
    """Run ``main(argv)``; it must fail with exactly one error line."""
    code = main(argv, out=io.StringIO())
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line]
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    return errors[0]


def load_and_ask(path):
    """Load the snapshot at ``path`` and ask where ``taxi-1`` is at the
    database clock."""
    database = load_database(str(path))
    return database.position_of("taxi-1", database.clock_time)


def load_failing(path):
    """:func:`load_and_ask` must raise a :mod:`repro.errors` error with
    a one-line message; any other exception fails the test."""
    with pytest.raises(ReproError) as caught:
        load_and_ask(path)
    message = str(caught.value)
    assert message and "\n" not in message, message


def with_a_depot(lines):
    """``lines`` plus a stationary class, one stationary object and an
    index rebuild, recorded through the library and appended with
    continuing seqs (no scenario inserts stationary objects or
    rebuilds its index)."""
    with use_recorder(TraceRecorder()) as recorder:
        database = MovingObjectDatabase()
        database.schema.define(ObjectClass("depot", SpatialKind.POINT,
                                           Mobility.STATIONARY))
        database.insert_stationary_object("depot-1", "depot",
                                          Point(1.0, 1.0))
        database.rebuild_index()
    extra = [event for event in recorder.to_dicts()
             if event["kind"] != "db_config"]
    for seq, event in enumerate(extra, start=len(lines) - 1):
        event["seq"] = seq
    header = json.loads(lines[0])
    header["events"] += len(extra)
    return [json.dumps(header, sort_keys=True), *lines[1:],
            *(json.dumps(event, sort_keys=True) for event in extra)]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hostile")
    trace = directory / "trace.jsonl"
    snapshot = directory / "snapshot.json"
    out = io.StringIO()
    assert main(["trace", "record", "--size", "5", "--duration", "12",
                 "--seed", "7", "--queries", "10", "--out", str(trace)],
                out=out) == 0
    assert main(["scenario", "--seed", "7", "--snapshot", str(snapshot)],
                out=out) == 0
    return (with_a_depot(trace.read_text().splitlines()),
            json.loads(snapshot.read_text()))


def test_the_uncorrupted_files_replay_and_load(recorded, tmp_path):
    lines, snapshot = recorded
    kinds = {json.loads(line)["data"].get("kind") for line in lines[1:]}
    assert {"position", "range", "within", "proximity", "nearest"} <= kinds
    assert json.loads(lines[-1])["kind"] == "index_config"
    assert all(snapshot[section] for section, *_ in SNAPSHOT_RECORDS)
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["trace", "replay", str(trace)], out=io.StringIO()) == 0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(snapshot))
    assert load_and_ask(path).object_id == "taxi-1"


_BY_LABEL = {record[0]: record for record in TRACE_RECORDS}


def corrupt_trace(lines, label, path, value):
    """``lines`` with the first event of ``label``'s kind corrupted,
    and that event's seq."""
    _, kind, query_kind = _BY_LABEL[label][:3]
    lines = list(lines)
    for i, line in enumerate(lines[1:], start=1):
        event = json.loads(line)
        if event["kind"] == kind and event["data"].get("kind") == query_kind:
            mutate(event, path, value)
            lines[i] = json.dumps(event, sort_keys=True)
            return lines, event["seq"]
    raise AssertionError(f"the trace holds no {label} event")


@pytest.mark.parametrize("label, path, value", cases(TRACE_RECORDS))
def test_corrupt_trace_event(recorded, tmp_path, capsys, label, path,
                             value):
    lines, seq = corrupt_trace(recorded[0], label, path, value)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace)], capsys)
    assert message.startswith(f"error: event {seq} "), message


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_trace_horizon(recorded, tmp_path, capsys, value):
    lines, seq = corrupt_trace(recorded[0], "db_config", "data.horizon",
                               value)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    with deadline(DEADLINE_S):
        message = run_failing(["trace", "replay", str(trace)], capsys)
    assert message.startswith(f"error: event {seq} "), message
    assert "horizon" in message, message


@pytest.mark.parametrize("key", ["slab_minutes", "max_entries",
                                 "min_entries"])
def test_null_index_tuning_replays_with_the_default(recorded, tmp_path,
                                                    key):
    lines, _ = corrupt_trace(recorded[0], "index_config", f"data.{key}",
                             None)
    trace = tmp_path / "null.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    assert main(["trace", "replay", str(trace)], out=out) == 0
    assert "replay OK" in out.getvalue()


@pytest.mark.parametrize("label, path, value", [
    case for case in cases(TRACE_RECORDS)
    if case.values[0].endswith("_query") and case.values[0] != "nearest_query"
])
def test_corrupt_query_replayed_as_a_batch(recorded, tmp_path, capsys,
                                           label, path, value):
    lines, seq = corrupt_trace(recorded[0], label, path, value)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace), "--mode", "batch"],
                          capsys)
    assert message.startswith(f"error: event {seq} "), message


#: Query points with an infinite coordinate: they decode, and the query
#: core refuses them when the query is asked, one at a time or batched.
INFINITE_POINTS = [
    pytest.param("range_query", "data.polygon",
                 [[0.0, 0.0], [float("inf"), 0.0], [float("inf"), 1.0],
                  [0.0, 1.0]], id="range-vertex"),
    pytest.param("within_query", "data.center", [1.0, float("-inf")],
                 id="within-center"),
]


@pytest.mark.parametrize("mode", ["sequential", "batch"])
@pytest.mark.parametrize("label, path, value", INFINITE_POINTS)
def test_infinite_query_point(recorded, tmp_path, capsys, label, path,
                              value, mode):
    lines, seq = corrupt_trace(recorded[0], label, path, value)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace), "--mode", mode],
                          capsys)
    assert message.startswith(f"error: event {seq} (query): "), message
    assert "must be finite, got " in message, message


@pytest.mark.parametrize("label, path, value", [
    case for case in cases(TRACE_RECORDS)
    if case.values[1].rsplit(".", 1)[-1] in ("vertices", "position", "x", "y")
])
def test_corrupt_extent_under_a_shard_override(recorded, tmp_path, capsys,
                                               label, path, value):
    """The ``--shards`` override grid reads every position up front."""
    lines, seq = corrupt_trace(recorded[0], label, path, value)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace), "--shards", "2"],
                          capsys)
    assert message.startswith(f"error: event {seq} "), message


@pytest.mark.parametrize("section, path, value", cases(SNAPSHOT_RECORDS))
def test_corrupt_snapshot_record(recorded, tmp_path, section, path, value):
    snapshot = copy.deepcopy(recorded[1])
    mutate(snapshot[section][0], path, value)
    target = tmp_path / "hostile.json"
    target.write_text(json.dumps(snapshot, indent=1))
    load_failing(target)


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_snapshot_horizon(recorded, tmp_path, value):
    snapshot = copy.deepcopy(recorded[1])
    snapshot["horizon"] = value
    target = tmp_path / "hostile.json"
    target.write_text(json.dumps(snapshot))
    with deadline(DEADLINE_S):
        load_failing(target)


def horizon_policy(horizon):
    return {"name": "horizon", "update_cost": 5.0, "horizon": horizon}


#: Horizon-policy horizons that are not positive and finite: ``C/inf``
#: is the free-updates trigger, a bound of 0 on a drifting object.
BAD_POLICY_HORIZONS = [pytest.param(float("inf"), id="inf"),
                       pytest.param(0.0, id="zero"),
                       pytest.param(-1.0, id="negative")]


@pytest.mark.parametrize("value", BAD_POLICY_HORIZONS)
def test_trace_policy_spec_horizon(recorded, tmp_path, capsys, value):
    lines, seq = corrupt_trace(recorded[0], "insert_mobile_policy",
                               "data.policy", horizon_policy(value))
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace)], capsys)
    assert message.startswith(f"error: event {seq} "), message
    assert "horizon" in message, message


@pytest.mark.parametrize("value", BAD_POLICY_HORIZONS)
def test_snapshot_policy_spec_horizon(recorded, tmp_path, value):
    snapshot = copy.deepcopy(recorded[1])
    target = tmp_path / "hostile.json"
    # A finite horizon loads and answers: only the horizon is at fault.
    snapshot["records"][0]["policy"] = horizon_policy(5.0)
    target.write_text(json.dumps(snapshot))
    load_and_ask(target)
    snapshot["records"][0]["policy"] = horizon_policy(value)
    target.write_text(json.dumps(snapshot))
    load_failing(target)


@pytest.mark.parametrize("key", SNAPSHOT_KEYS)
def test_snapshot_without_a_section(recorded, tmp_path, key):
    snapshot = copy.deepcopy(recorded[1])
    del snapshot[key]
    target = tmp_path / "hostile.json"
    target.write_text(json.dumps(snapshot))
    load_failing(target)


@pytest.mark.parametrize("damage", ["missing", "truncated", "not-object"])
def test_unreadable_snapshot_file(recorded, tmp_path, damage):
    target = tmp_path / "hostile.json"
    text = json.dumps(recorded[1], indent=1)
    if damage == "truncated":
        target.write_text(text[: len(text) // 2])
    elif damage == "not-object":
        target.write_text(json.dumps([recorded[1]]))
    load_failing(target)


@pytest.mark.parametrize("damage", ["missing", "truncated", "not-object"])
def test_unreadable_trace_file(recorded, tmp_path, capsys, damage):
    lines = list(recorded[0])
    target = tmp_path / "hostile.jsonl"
    if damage == "truncated":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    elif damage == "not-object":
        lines[-1] = "[]"
    if damage != "missing":
        target.write_text("\n".join(lines) + "\n")
    run_failing(["trace", "replay", str(target)], capsys)


STATS = ["stats", "--name", "taxi", "--size", "3", "--duration", "3",
         "--queries", "2"]


@pytest.fixture(scope="module")
def shard_plan(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan.json"
    save_plan(uniform_grid_for(Rect2D(0.0, 0.0, 10.0, 10.0), 2), str(path))
    assert main(STATS + ["--shard-plan", str(path)], out=io.StringIO()) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("path, value", PLAN_CORRUPTIONS)
def test_corrupt_shard_plan(shard_plan, tmp_path, capsys, path, value):
    plan = copy.deepcopy(shard_plan)
    mutate(plan, path, value)
    target = tmp_path / "hostile-plan.json"
    target.write_text(json.dumps(plan))
    run_failing(STATS + ["--shard-plan", str(target)], capsys)


@pytest.fixture(scope="module")
def sharded_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("sharded") / "trace.jsonl"
    assert main(["trace", "record", "--size", "3", "--duration", "5",
                 "--seed", "7", "--queries", "2", "--shards", "2",
                 "--out", str(trace)], out=io.StringIO()) == 0
    assert main(["trace", "replay", str(trace)], out=io.StringIO()) == 0
    return trace.read_text().splitlines()


@pytest.mark.parametrize("path, value", PLAN_CORRUPTIONS)
def test_corrupt_partitioning_of_a_sharded_trace(sharded_trace, tmp_path,
                                                 capsys, path, value):
    lines = list(sharded_trace)
    event = json.loads(lines[1])
    assert event["kind"] == "db_config"
    mutate(event["data"], path, value)
    lines[1] = json.dumps(event, sort_keys=True)
    trace = tmp_path / "hostile.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    message = run_failing(["trace", "replay", str(trace)], capsys)
    assert message.startswith(f"error: event {event['seq']} "), message
