"""Overhead of the flight recorder on the batch query path.

Two measurements around one ``BatchQueryEngine.run`` call answering a
1 000-query mixed workload over a 500-object database:

* **null recorder** — the engine under the default
  :class:`NullRecorder` (the library path nobody records),
* **live recorder** — the same engine under a live
  :class:`TraceRecorder`: every answer digested and recorded, the
  price a recorded run pays.

The acceptance claim: with recording *enabled* the run must stay within
10% of the recorder-off run (1 001 events, each answer
SHA-256-digested).  What recorder-off itself costs — one hoisted
``enabled`` check per run — is covered end to end by the ``serve_mixed``
row of the committed ledger (``benchmarks/e2e/``).  The gate asserts on
min-of-N timings taken round-robin (legs interleaved, GC paused) so
slow machine drift hits both legs alike.  The registered harness cases
run a scaled-down workload to keep ``repro bench run`` fast; the gate
test times the full one.
"""

import gc
import random
import time

import pytest

from repro.bench import benchmark as register_benchmark
from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.trace.events import QUERY
from repro.trace.recorder import get_recorder, use_recorder
from repro.workloads.query_workloads import mixed_query_workload

#: The acceptance workload (ISSUE 6): 500 objects, 1 000 queries.
NUM_OBJECTS = 500
NUM_QUERIES = 1000
#: Scaled-down workload for the registered harness cases.
FAST_OBJECTS = 120
FAST_QUERIES = 240
QUERY_TIMES = (8.0, 10.0, 12.0)


def build_workload(num_objects=NUM_OBJECTS, num_queries=NUM_QUERIES):
    """A taxi database plus a mixed batch workload over it."""
    rng = random.Random(11)
    network = grid_city_network(10, 10, 0.5)
    database = MovingObjectDatabase(
        index=TimeSpaceIndex(slab_minutes=5.0), horizon=90.0
    )
    database.schema.define_mobile_point_class(
        "taxi", (AttributeDef("free", "bool"),)
    )
    object_ids = []
    for i in range(num_objects):
        route = network.random_route(rng, min_length=0.5)
        database.register_route(route)
        direction = rng.randrange(2)
        object_id = f"taxi-{i}"
        database.insert_moving_object(
            object_id, "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction,
            rng.uniform(0.1, 0.4), make_policy("ail", 5.0),
            max_speed=0.8, attributes={"free": i % 2 == 0},
        )
        object_ids.append(object_id)
    queries = mixed_query_workload(
        network, random.Random(23), num_queries, object_ids, QUERY_TIMES,
    )
    return database, queries


@pytest.fixture(scope="module")
def trace_workload():
    return build_workload()


def _interleaved_times(legs, rounds=5):
    """Per-round wall times for every leg, measured round-robin, GC off.

    Interleaving means slow drift (thermal, scheduler) biases every leg
    of a round equally, so *within-round ratios* measure relative cost
    with the drift cancelled; the caller takes the best ratio across
    rounds.
    """
    times = {name: [] for name, _ in legs}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for name, fn in legs:
                start = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


@register_benchmark("trace.null_recorder", group="trace", warmup=1, repeat=3)
def harness_null_recorder():
    """Instrumented batch run under the default NullRecorder."""
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    return lambda: BatchQueryEngine(database).run(queries)


@register_benchmark("trace.live_recorder", group="trace", warmup=1, repeat=3)
def harness_live_recorder():
    """Instrumented batch run under a live TraceRecorder."""
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)

    def kernel():
        with use_recorder():
            return BatchQueryEngine(database).run(queries)

    return kernel


def test_recorder_overhead_gates(trace_workload):
    """Acceptance gate: recorder-on within 10% of recorder-off."""
    database, queries = trace_workload
    assert get_recorder().enabled is False

    def recorder_off():
        return BatchQueryEngine(database).run(queries)

    def recorder_on():
        with use_recorder() as recorder:
            answers = BatchQueryEngine(database).run(queries)
        return answers, recorder

    # Equivalence first (doubles as warm-up): both paths produce
    # identical answers, so the timing comparison is apples to apples —
    # and the live leg actually recorded the whole batch (one event per
    # query plus the cache summary event).
    expected = recorder_off()
    answers, recorder = recorder_on()
    assert answers == expected
    query_events = [e for e in recorder.events() if e.kind == QUERY]
    assert len(query_events) == NUM_QUERIES
    assert len(recorder) == NUM_QUERIES + 1

    times = _interleaved_times([
        ("off", recorder_off),
        ("on", lambda: recorder_on()[0]),
    ])
    # The best *paired* ratio: within a round the drift hits both legs
    # alike, so the smallest observed ratio upper-bounds the true
    # overhead far more tightly than a ratio of global minima.
    on_overhead = min(o / s for o, s in zip(times["on"], times["off"])) - 1.0
    print(f"\nrecorder-off {min(times['off']) * 1e3:.1f} ms  "
          f"recorder-on {min(times['on']) * 1e3:.1f} ms "
          f"({on_overhead * 100:+.2f}%)")
    assert on_overhead < 0.10, (
        f"recorder-on overhead {on_overhead * 100:.2f}% exceeds 10%"
    )


def test_bench_null_recorder(benchmark):
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    assert get_recorder().enabled is False
    answers = benchmark(lambda: BatchQueryEngine(database).run(queries))
    assert len(answers) == FAST_QUERIES


def test_bench_live_recorder(benchmark):
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    with use_recorder():
        answers = benchmark(
            lambda: BatchQueryEngine(database).run(queries)
        )
    assert len(answers) == FAST_QUERIES
