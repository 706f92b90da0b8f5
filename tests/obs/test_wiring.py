"""Integration tests: the instrumentation hooks in engine, fleet, DBMS,
and index publish metrics that agree with the values the library already
returns through its normal APIs."""

import random

import pytest

from repro.core.policies import DelayedLinearPolicy
from repro.obs import use_registry, use_tracer
from repro.obs.registry import get_registry
from repro.obs.tracing import Tracer
from repro.sim.engine import simulate_trip
from repro.workloads.query_workloads import polygon_query_workload
from repro.workloads.scenarios import taxi_fleet_scenario

C = 5.0


def counters_and_gauges(registry):
    """The deterministic half of a snapshot (timing histograms excluded)."""
    snapshot = registry.snapshot()
    return snapshot["counters"], snapshot["gauges"]


class TestEngineMetrics:
    def test_counters_match_trip_metrics(self, example1_trip):
        with use_registry() as registry:
            result = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        m = result.metrics
        assert registry.value("sim_runs_total", policy="dl") == 1
        assert registry.value("sim_updates_total",
                              policy="dl") == m.num_updates
        assert m.num_updates > 0
        assert registry.value("sim_ticks_total") == 600  # 10 min at 1 s

    def test_per_tick_histograms_sample_every_tick(self, example1_trip):
        with use_registry() as registry:
            simulate_trip(example1_trip, DelayedLinearPolicy(C))
        deviation = registry.get("sim_tick_deviation_miles", policy="dl")
        bound = registry.get("sim_tick_bound_miles", policy="dl")
        assert deviation.count == bound.count == 600
        assert bound.sum >= deviation.sum  # bound dominates deviation

    def test_gauges_mirror_last_run(self, example1_trip):
        with use_registry() as registry:
            result = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        assert registry.value(
            "sim_avg_deviation_miles", policy="dl"
        ) == pytest.approx(result.metrics.avg_deviation)
        assert registry.value(
            "sim_total_cost", policy="dl"
        ) == pytest.approx(result.metrics.total_cost)

    def test_wall_time_histogram_recorded(self, example1_trip):
        with use_registry() as registry:
            simulate_trip(example1_trip, DelayedLinearPolicy(C))
        hist = registry.get("sim_run_seconds", policy="dl")
        assert hist.count == 1
        assert hist.sum > 0.0

    def test_run_span_emitted(self, example1_trip):
        tracer = Tracer()
        with use_registry(), use_tracer(tracer):
            simulate_trip(example1_trip, DelayedLinearPolicy(C))
        # dl is a kernel policy: one lane is a pass of one vehicle.
        (record,) = tracer.spans_named("simulate_trip_batch")
        assert record.attrs["policy"] == "dl"
        assert record.attrs["vehicles"] == record.attrs["costs"] == 1
        assert record.duration > 0.0
        assert tracer.spans_named("simulate_trip") == []

    def test_identical_runs_identical_nontiming_metrics(self, example1_trip):
        snapshots = []
        for _ in range(2):
            with use_registry() as registry:
                simulate_trip(example1_trip, DelayedLinearPolicy(C))
            snapshots.append(counters_and_gauges(registry))
        assert snapshots[0] == snapshots[1]

    def test_results_unchanged_by_observation(self, example1_trip):
        plain = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        with use_registry():
            observed = simulate_trip(example1_trip, DelayedLinearPolicy(C))
        assert observed.metrics == plain.metrics

    def test_default_path_records_nothing(self, example1_trip):
        simulate_trip(example1_trip, DelayedLinearPolicy(C))
        assert get_registry().enabled is False
        assert len(get_registry()) == 0


class TestFleetAndDbmsMetrics:
    DURATION = 10.0

    @pytest.fixture
    def scenario(self):
        return taxi_fleet_scenario(num_taxis=5, duration=self.DURATION,
                                   seed=7)

    def test_fleet_message_accounting(self, scenario):
        with use_registry() as registry:
            counts = scenario.fleet.run()
        total = sum(counts.values())
        assert total > 0
        assert registry.value("fleet_messages_total") == total
        for object_id, sent in counts.items():
            assert registry.value(
                "fleet_vehicle_messages_total", vehicle=object_id
            ) == sent
        assert registry.value("fleet_vehicles") == len(counts)
        assert registry.value(
            "fleet_messages_per_minute"
        ) == pytest.approx(total / self.DURATION)
        assert registry.value("fleet_avg_deviation_miles", policy="ail") > 0

    def test_dbms_sees_every_fleet_message(self, scenario):
        with use_registry() as registry:
            counts = scenario.fleet.run()
        assert registry.value(
            "dbms_update_messages_total"
        ) == sum(counts.values())
        update_hist = registry.get("dbms_update_seconds")
        assert update_hist.count == sum(counts.values())

    def test_query_latency_and_classification(self, scenario):
        with use_registry() as registry:
            scenario.fleet.run()
            polygons = polygon_query_workload(
                scenario.network, random.Random(5), count=4
            )
            answers = [
                scenario.database.range_query(polygon, self.DURATION)
                for polygon in polygons
            ]
        hist = registry.get("dbms_query_seconds", kind="range")
        assert hist.count == 4
        classified = sum(
            registry.value("dbms_classified_total", outcome=outcome)
            for outcome in ("out", "may", "must")
        )
        assert classified == sum(len(a.candidates) for a in answers)
        must = sum(len(a.must) for a in answers)
        assert registry.value("dbms_classified_total", outcome="must") == must

    def test_index_metrics(self, scenario):
        with use_registry() as registry:
            scenario.fleet.run()
            polygons = polygon_query_workload(
                scenario.network, random.Random(5), count=3
            )
            for polygon in polygons:
                scenario.database.range_query(polygon, self.DURATION)
        assert registry.value("index_boxes_inserted_total") > 0
        assert registry.value("index_searches_total") == 3
        assert registry.value("index_nodes_visited_total") >= 3
        assert registry.get("index_search_results").count == 3
        # Live size gauges agree with the database's actual index.
        assert registry.value("index_objects") == len(scenario.database)

    def test_fleet_run_span(self, scenario):
        tracer = Tracer()
        with use_registry(), use_tracer(tracer):
            scenario.fleet.run()
        (record,) = tracer.spans_named("fleet_run")
        assert record.attrs["vehicles"] == 5
