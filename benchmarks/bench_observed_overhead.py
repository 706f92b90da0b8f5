"""What observing costs: two workloads, plain and under each sink.

An observed run is the unobserved program plus telemetry, and every
hook reaches its sinks through one probe (:mod:`repro.obs.probe`), so
one script prices all of it.  Two workloads —

* **trip**: ``simulate_trip`` over a one-hour city trip at one-second
  ticks (the policy kernel: ticks, updates, run instruments),
* **serve**: one ``BatchQueryEngine.run`` answering 1 000 mixed queries
  over a 500-object database (index search, refinement, one ``query``
  event per answer) —

each run plain, under every sink alone (``registry``, ``tracer``,
``recorder``) and under all three; ``python
benchmarks/bench_observed_overhead.py`` prints one row per pairing with
its ``observed_over_plain`` ratio.  What the *plain* path costs — one
``probe()`` read and one flag test per hook — is covered end to end by
the committed ledger (``benchmarks/e2e/``).

A gate rides along (``pytest benchmarks/bench_observed_overhead.py``):
with the flight recorder on, the serve workload stays within 10 % of
plain (1 001 events, each answer SHA-256-digested).  It takes the best
*paired* ratio over interleaved rounds with GC paused, so machine drift hits both legs of a
round alike.  ``pytest benchmarks/bench_observed_overhead.py
--benchmark-only`` times four cases, named after the three scripts this
one replaces; the two serve cases run a scaled-down workload.
"""

import gc
import random
import time

import pytest

from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef
from repro.index.timespace import TimeSpaceIndex
from repro.obs import observe
from repro.obs.probe import probe
from repro.routes.generators import grid_city_network
from repro.sim.engine import simulate_trip
from repro.sim.speed_curves import CityCurve
from repro.sim.trip import Trip
from repro.trace.events import QUERY
from repro.workloads.query_workloads import mixed_query_workload

DT = 1.0 / 60.0
#: The acceptance workload: 500 objects, 1 000 queries.
NUM_OBJECTS = 500
NUM_QUERIES = 1000
#: Scaled-down workload for the timed serve cases.
FAST_OBJECTS = 120
FAST_QUERIES = 240
QUERY_TIMES = (8.0, 10.0, 12.0)
SINKS = ("registry", "tracer", "recorder")


def trip_workload():
    """The hour trip through ``simulate_trip``, as a kernel."""
    trip = Trip.synthetic(CityCurve(60.0, random.Random(7)))
    policy = make_policy("ail", 5.0)
    return lambda: simulate_trip(trip, policy, dt=DT)


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


def serve_workload(num_objects=NUM_OBJECTS, num_queries=NUM_QUERIES):
    """One batch over a fresh engine, as a kernel."""
    database, queries = build_workload(num_objects, num_queries)
    return lambda: BatchQueryEngine(database).run(queries)


def fast_serve_workload():
    """The serve workload scaled down for the timed cases."""
    return serve_workload(FAST_OBJECTS, FAST_QUERIES)


def under(kernel, **sinks):
    """``kernel`` under freshly installed ``sinks``: it returns the
    kernel's result and those sinks.  With none, ``kernel`` itself."""
    if not sinks:
        return kernel

    def observed():
        with observe(**sinks) as p:
            return kernel(), {name: getattr(p, name) for name in sinks}

    return observed


def interleaved_times(legs, rounds=5):
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


def overhead_rows(workloads=None, budget=0.5):
    """``(workload, sinks, best seconds, observed_over_plain)`` rows.

    Each pairing gets about ``budget`` seconds (at least three
    interleaved rounds); the ratio is best observed over best plain.
    """
    if workloads is None:
        workloads = {"trip": trip_workload(), "serve": serve_workload()}
    pairings = [("plain", {})]
    pairings += [(sink, {sink: True}) for sink in SINKS]
    pairings.append(("all", dict.fromkeys(SINKS, True)))
    rows = []
    for workload, kernel in workloads.items():
        start = time.perf_counter()
        kernel()  # warm-up: caches, lazy imports
        rounds = max(3, int(budget / (time.perf_counter() - start)))
        times = interleaved_times(
            [(name, under(kernel, **sinks)) for name, sinks in pairings],
            rounds)
        plain = min(times["plain"])
        rows += [(workload, name, min(times[name]), min(times[name]) / plain)
                 for name, _ in pairings]
    return rows


def case(workload, sink=None):
    """A kernel factory: ``workload`` plain, or under one sink."""
    def factory():
        return under(workload(), **({sink: True} if sink else {}))

    return factory


@pytest.fixture(scope="module")
def serve_kernel():
    return serve_workload()


def gated_overhead(kernel, sink):
    """Best paired ``observed / plain - 1`` of ``kernel`` under ``sink``."""
    observed = under(kernel, **{sink: True})
    times = interleaved_times([("plain", kernel), ("observed", observed)])
    overhead = min(o / p for o, p in
                   zip(times["observed"], times["plain"])) - 1.0
    print(f"\n{sink}-off {min(times['plain']) * 1e3:.1f} ms  {sink}-on "
          f"{min(times['observed']) * 1e3:.1f} ms ({overhead * 100:+.2f}%)")
    return overhead


def test_recorder_overhead_gates(serve_kernel):
    """Acceptance gate: recorder-on within 10% of recorder-off."""
    assert probe().enabled is False
    # Equivalence first (doubles as warm-up): both paths produce
    # identical answers, and the observed leg recorded the whole batch
    # (one event per query plus the cache summary event).
    expected = serve_kernel()
    answers, sinks = under(serve_kernel, recorder=True)()
    assert answers == expected
    recorder = sinks["recorder"]
    assert sum(e.kind == QUERY for e in recorder.events()) == NUM_QUERIES
    assert len(recorder) == NUM_QUERIES + 1
    overhead = gated_overhead(serve_kernel, "recorder")
    assert overhead < 0.10, (
        f"recorder-on overhead {overhead * 100:.2f}% exceeds 10%")


@pytest.mark.parametrize("factory", [
    pytest.param(case(trip_workload), id="obs.noop_registry"),
    pytest.param(case(trip_workload, "registry"), id="obs.live_registry"),
    pytest.param(case(fast_serve_workload), id="trace.null_recorder"),
    pytest.param(case(fast_serve_workload, "recorder"),
                 id="trace.live_recorder")])
def test_bench_registered_case(benchmark, factory):
    """Each workload timed plain or under one sink."""
    assert benchmark(factory()) is not None


def test_every_pairing_runs_and_reports_a_ratio():
    rows = overhead_rows({"trip": trip_workload(),
                          "serve": fast_serve_workload()}, budget=0.0)
    assert [row[1] for row in rows] == 2 * ["plain", *SINKS, "all"]
    assert all(row[3] > 0.0 for row in rows)
    assert all(row[3] == 1.0 for row in rows if row[1] == "plain")


if __name__ == "__main__":
    print(f"{'workload':<9}{'sinks':<10}{'best ms':>10}"
          f"{'observed_over_plain':>21}")
    for workload, sinks, seconds, ratio in overhead_rows():
        print(f"{workload:<9}{sinks:<10}{seconds * 1e3:>10.2f}{ratio:>21.3f}")
