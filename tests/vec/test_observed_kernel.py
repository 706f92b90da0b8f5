"""An observed run is the same program, plus telemetry.

The kernel stays on when a registry or tracer is enabled and reports
what the reference loop reports, from what it already holds: the
settled tiles are the per-tick samples (``Histogram.observe_many``),
the result rows the run instruments.  So a kernel run and the same
lanes each through ``PolicySimulation._run_generic`` must leave the
same ``sim_*`` samples — counters, last-run gauges and every histogram
bucket equal; a histogram's ``sum`` only to rounding, because it is a
sum in a different order — and the same results as an unobserved run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.policies import make_policy
from repro.exec import SweepExecutor, TickGrid
from repro.experiments.sweep import SweepSpec
from repro.obs.metrics import MILE_BUCKETS, Histogram
from repro.obs.registry import get_registry, use_registry, use_tracer
from repro.sim.engine import simulate_trip
from repro.sim.trip import Trip
from repro.vec import engine
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch
from tests.conftest import examples
from tests.oracle.policy_reference import assert_same, reference_run
from tests.oracle.test_fleet_differential import build as build_fleet
from tests.vec.test_engine_equivalence import CURVES, MIXED_KINDS, build_grid

# ----------------------------------------------------------------------
# Histogram.observe_many is a loop of observe
# ----------------------------------------------------------------------

EDGES = sorted({0.0, *MILE_BUCKETS,
                *(np.nextafter(bound, side) for bound in MILE_BUCKETS
                  for side in (0.0, np.inf)),
                11.0, 1e9})


def check_observe_many(values):
    many, loop = (Histogram("h", MILE_BUCKETS) for _ in range(2))
    many.observe_many(values)
    for value in values.reshape(-1).tolist():
        loop.observe(value)
    assert many.bucket_counts == loop.bucket_counts
    assert many.count == loop.count == values.size
    assert type(many.count) is int and type(many.sum) is float
    assert all(type(count) is int for count in many.bucket_counts)
    assert many.sum == pytest.approx(loop.sum, rel=1e-12, abs=0.0)
    return many


def test_observe_many_on_edges_zero_overflow_empty_and_a_tile():
    # `le` semantics: a value on an edge belongs to that edge's bucket.
    on_edges = check_observe_many(np.array(MILE_BUCKETS))
    assert on_edges.bucket_counts == [1] * len(MILE_BUCKETS) + [0]
    just_above = check_observe_many(
        np.array([np.nextafter(bound, np.inf) for bound in MILE_BUCKETS]))
    assert just_above.bucket_counts == [0] + [1] * len(MILE_BUCKETS)
    assert check_observe_many(np.zeros(3)).bucket_counts[0] == 3
    assert check_observe_many(np.array([10.0, 10.5, 1e9])).bucket_counts[
        -2:] == [1, 2]
    empty = check_observe_many(np.empty((0, 2, 3)))
    assert (empty.count, empty.sum) == (0, 0.0)
    tile = np.arange(4 * 2 * 5, dtype=np.float64).reshape(4, 2, 5) / 7.0
    check_observe_many(tile)
    check_observe_many(tile[:, 1])  # a view: one cost row of the tile
    # Accumulates onto earlier samples.
    histogram = check_observe_many(tile)
    once = list(histogram.bucket_counts)
    histogram.observe_many(tile)
    assert histogram.count == 2 * tile.size
    assert histogram.bucket_counts == [2 * count for count in once]


@settings(max_examples=examples(100))
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.floats(0.0, 20.0)),
                max_size=60),
       st.sampled_from(((-1,), (-1, 1), (1, -1), (-1, 2, 1))))
def test_observe_many_is_a_loop_of_observe(values, shape):
    if len(values) % 2:  # the 3-d shape pairs them up
        values.append(0.0)
    check_observe_many(np.array(values, dtype=np.float64).reshape(shape))


# ----------------------------------------------------------------------
# The kernel's telemetry is the reference loop's
# ----------------------------------------------------------------------

def sim_samples(registry):
    """The ``sim_*`` samples by ``(name, labels)``, one dict per kind."""
    snapshot = registry.snapshot()
    return [{(sample["name"], tuple(sorted(sample["labels"].items()))): sample
             for sample in snapshot[kind]
             if sample["name"].startswith("sim_")}
            for kind in ("counters", "gauges", "histograms")]


def assert_same_telemetry(registry, reference_registry):
    counters, gauges, histograms = sim_samples(registry)
    ref_counters, ref_gauges, ref_histograms = sim_samples(reference_registry)
    assert counters and gauges and histograms
    assert counters == ref_counters
    assert repr(gauges) == repr(ref_gauges)
    assert histograms.keys() == ref_histograms.keys()
    for key, sample in histograms.items():
        reference = ref_histograms[key]
        assert sample["count"] == reference["count"], key
        if sample["name"] == "sim_run_seconds":
            continue  # wall clock: one observation per run is the contract
        assert sample["buckets"] == reference["buckets"], key
        assert sample["sum"] == pytest.approx(reference["sum"], rel=1e-9), key


@pytest.fixture
def tiles(monkeypatch):
    """Every array the kernel hands ``observe_many``, checked finite: a
    masked replay row (``2C / elapsed`` with ``elapsed <= 0``) must have
    been overwritten before its window was committed."""
    sizes = []
    observe_many = Histogram.observe_many

    def spy(self, values):
        assert np.isfinite(values).all()
        sizes.append(values.size)
        observe_many(self, values)

    monkeypatch.setattr(Histogram, "observe_many", spy)
    return sizes


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
def test_a_pass_reports_what_its_lanes_report_alone(policy_name, tiles,
                                                    monkeypatch):
    monkeypatch.setattr(engine, "TILE_ELEMENTS", 40 * 40)  # 40-tick windows
    grids = [build_grid(kind, duration=12.0, seed=80 + j)
             for j, kind in enumerate(MIXED_KINDS)]
    policies = [make_policy(policy_name, cost) for cost in (0.0, 0.3, 2.0)]
    with use_registry() as registry, use_tracer() as tracer:
        rows = simulate_batch(VecTripBatch.from_grids(grids), policies)
    with use_registry() as reference_registry:
        for c, policy in enumerate(policies):
            for j, grid in enumerate(grids):
                assert_same(rows[c * len(grids) + j],
                            reference_run(grid, policy), (c, j))
    assert_same_telemetry(registry, reference_registry)
    num_ticks = grids[0].num_ticks
    assert registry.value("sim_runs_total", policy=policy_name) == 3 * 5
    assert registry.value("sim_ticks_total") == 3 * 5 * num_ticks
    # Two histograms a window, every lane-tick once; replays happened.
    assert sum(tiles) == 2 * 3 * 5 * num_ticks
    (record,) = tracer.spans_named("simulate_trip_batch")
    assert record.attrs["window_ticks"] == 40
    assert record.attrs["replay_rounds"] > 0
    assert len(tiles) == 2 * record.attrs["windows"]


@pytest.mark.parametrize("policy_name", ["dl", "ail", "cil"])
def test_one_observed_trip_reports_what_the_reference_reports(policy_name,
                                                              tiles):
    trip = Trip.synthetic(CURVES["rush-hour"](9.0, random.Random(11)))
    grid = TickGrid.build(trip, 0.1)
    policy = make_policy(policy_name, 0.3)
    with use_registry() as registry:
        result = simulate_trip(trip, policy, dt=0.1)
    with use_registry() as reference_registry:
        assert_same(result, reference_run(grid, policy))
    assert result.updates
    assert_same_telemetry(registry, reference_registry)
    assert sum(tiles) == 2 * grid.num_ticks


def test_an_observed_mixed_fleet_reports_what_its_lanes_report_alone(tiles):
    # The lone ail comes after the ail group and the lone dl after
    # everything dl: the "last run" a gauge mirrors is then the same
    # lane whether lanes finish group by group or one by one.
    vehicles = [("ail", 0.2, 3.05)] * 4 + [
        ("fixed-threshold", 0.2, 3.05), ("ail", 0.2, 2.0),
        ("dl", 0.05, 3.05), ("fixed-threshold", 0.05, 2.0)]
    fleet = build_fleet(vehicles, 0.1, 7)
    with use_registry() as registry:
        counts = fleet.run()
    with use_registry() as reference_registry:
        references = [reference_run(TickGrid.build(vehicle.trip, 0.1),
                                    vehicle.policy)
                      for vehicle in fleet.vehicles.values()]
    assert sum(counts.values()) > 0
    assert list(counts.values()) == [
        reference.metrics.num_updates for reference in references]
    assert_same_telemetry(registry, reference_registry)
    assert registry.value("sim_runs_total", policy="fixed-threshold") == 2
    # Five passes of one window each: fixed-threshold is a kernel lane.
    assert len(tiles) == 2 * 5


# ----------------------------------------------------------------------
# Observed = unobserved + telemetry
# ----------------------------------------------------------------------

def test_results_do_not_depend_on_who_is_watching():
    spec = SweepSpec(policy_names=("dl", "ail", "cil", "fixed-threshold"),
                     policy_kwargs={"fixed-threshold": {"bound": 0.5}},
                     update_costs=(0.0, 1.0), num_curves=5, duration=8.0,
                     dt=0.1)
    plain = repr(SweepExecutor().run(spec).cells)
    with use_registry() as registry, use_tracer() as tracer:
        observed = SweepExecutor().run(spec)
    assert repr(observed.cells) == plain
    assert sum(sample["value"]
               for sample in registry.snapshot()["counters"]
               if sample["name"] == "sim_runs_total") == 4 * 2 * 5
    assert tracer.spans_named("simulate_trip_batch")
    trip = Trip.synthetic(CURVES["city"](9.0, random.Random(11)))
    for policy_name in ("dl", "ail", "cil", "periodic"):
        alone = simulate_trip(trip, make_policy(policy_name, 0.3), dt=0.1)
        with use_registry(), use_tracer():
            watched = simulate_trip(trip, make_policy(policy_name, 0.3),
                                    dt=0.1)
        assert repr(watched) == repr(alone)
        assert alone.updates


def test_an_unobserved_pass_touches_no_instrument(monkeypatch):
    """Under the default ``NullRegistry`` the one ``enabled`` read per
    block is all: no instrument lookup, no histogram call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an unobserved pass touched an instrument")

    assert get_registry().enabled is False
    for name in ("_tick_instruments", "_record_run"):
        monkeypatch.setattr(engine, name, forbidden)
    for name in ("counter", "gauge", "histogram"):
        monkeypatch.setattr(type(get_registry()), name, forbidden)
    grids = [build_grid(kind, duration=6.0) for kind in MIXED_KINDS]
    rows = simulate_batch(VecTripBatch.from_grids(grids),
                          [make_policy("dl", 0.3), make_policy("dl", 1.0)])
    assert len(rows) == 10 and any(row.updates for row in rows)
