"""Unit tests for repro.obs.probe — the seam the hooks state facts to."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ObservabilityError
from repro.obs import Counter, Histogram, MetricsRegistry, Tracer, observe
from repro.obs.catalogue import CATALOGUE, UNLISTED
from repro.obs.probe import probe
from repro.trace import TraceRecorder, events
from repro.trace.events import answer_digest

SRC = Path(repro.__file__).parents[1]


class TestEnabled:
    def test_off_by_default_and_on_under_any_one_sink(self):
        p = probe()
        assert p.enabled is False
        for slot in ("registry", "tracer", "recorder"):
            with observe(**{slot: True}):
                assert p.enabled is True
            assert p.enabled is False

    def test_observe_values(self):
        registry = MetricsRegistry()
        with observe(registry=registry, tracer=True, recorder=None) as p:
            assert p.registry is registry
            assert isinstance(p.tracer, Tracer)
            assert p.recorder.enabled is False
            with observe(registry=False):
                assert p.registry.enabled is False and p.enabled
            assert p.registry is registry
        assert probe().enabled is False

    def test_unknown_slot_is_refused(self):
        with pytest.raises(ObservabilityError, match="unknown sink slot"):
            with observe(metrics=True):
                pass


class TestFactsReachTheirSinks:
    def test_a_catalogued_metric_carries_its_help_buckets_and_kind(self):
        with observe(registry=True) as p:
            p.observe("shard_query_fanout", 2.0)
            p.count("shard_queries_total")
            registry = p.registry
        entry = CATALOGUE["shard_query_fanout"]
        assert registry.help_text("shard_query_fanout") == entry.help
        assert isinstance(registry.get("shard_query_fanout"), Histogram)
        assert registry.get("shard_query_fanout").bounds == entry.buckets
        assert isinstance(registry.get("shard_queries_total"), Counter)
        assert registry.value("shard_queries_total") == 1.0

    def test_an_unlisted_name_is_a_plain_latency_series(self):
        with observe(registry=True) as p:
            p.count("my_counter", 2, shard="a")
            with p.timed("my_seconds"):
                pass
            registry = p.registry
        assert registry.value("my_counter", shard="a") == 2.0
        assert registry.get("my_seconds").count == 1
        assert registry.get("my_seconds").bounds == UNLISTED.buckets
        assert registry.help_text("my_seconds") == ""

    def test_instrument_is_the_registry_instrument_or_a_noop(self):
        with observe(registry=True) as p:
            histogram = p.instrument("sim_tick_bound_miles", policy="dl")
            histogram.observe(0.3)
            assert p.registry.get("sim_tick_bound_miles",
                                  policy="dl") is histogram
        with observe(tracer=True) as p:
            p.instrument("sim_updates_total", policy="dl").inc()
        with pytest.raises(KeyError):
            probe().instrument("not_in_the_catalogue")

    def test_an_update_event_is_counted_and_recorded(self):
        recorder = TraceRecorder()
        with observe(registry=True, recorder=recorder) as p:
            p.event(events.UPDATE, time=3.0, object_id="cab-1", speed=0.4)
            p.event(events.CACHE, hits=1, misses=0)
            registry = p.registry
        assert registry.value("dbms_update_messages_total") == 1.0
        assert [event.kind for event in recorder.events()] == [
            events.UPDATE, events.CACHE]

    def test_an_answer_is_digested_only_for_a_recorder(self):
        class Undigestible:
            def __getattr__(self, name):
                raise AssertionError("digested with no recorder listening")

        with observe(registry=True) as p:
            p.query("nearest", Undigestible(), time=1.0, k=3)
        recorder = TraceRecorder()
        with observe(recorder=recorder) as p:
            p.query("nearest", [], time=1.0, k=3)
        (event,) = recorder.events()
        assert event.data["digest"] == answer_digest([])
        assert event.data["k"] == 3 and event.data["engine"] == "db"


class TestImportOrder:
    """A slot is bound when its sink's module is imported; a fresh
    interpreter that never imports ``repro.trace`` must still run."""

    def run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True)

    def test_a_command_without_observation_flags_runs(self):
        done = self.run("-m", "repro", "scenario", "--size", "3",
                        "--duration", "5")
        assert done.returncode == 0, done.stdout + done.stderr
        assert "messages" in done.stdout

    def test_an_unbound_slot_can_be_left_alone_but_not_switched_on(self):
        done = self.run("-c", (
            "import sys\n"
            "from repro.obs.probe import observe, probe\n"
            "assert 'repro.trace.recorder' not in sys.modules\n"
            "with observe(recorder=None, registry=True) as p:\n"
            "    assert p.enabled and not p.recorder.enabled\n"
            "try:\n"
            "    with observe(recorder=True):\n"
            "        pass\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(
            "ObservabilityError sink slot 'recorder'")
