"""Parallel sweeps must not lose worker telemetry.

Workers run in separate processes, so their metric samples and span
trees die with them unless the executor ships the data back.  These
tests pin the contract: a ``--jobs 4`` sweep reports the same
simulation counters as a serial one (under per-worker labels), and the
parent tracer adopts every worker's span tree.
"""

from repro.exec import SweepExecutor
from repro.experiments.sweep import SweepSpec
from repro.obs import MetricsRegistry, use_registry
from repro.obs.registry import use_tracer


def small_spec() -> SweepSpec:
    return SweepSpec(
        policy_names=("dl", "ail"),
        update_costs=(2.0, 5.0),
        num_curves=4,
        duration=10.0,
        dt=0.1,
    )


def counter_total(registry: MetricsRegistry, name: str,
                  worker_only: bool = False) -> float:
    """Summed value of ``name`` across all (worker-labeled) samples."""
    return sum(
        s["value"]
        for s in registry.snapshot()["counters"]
        if s["name"] == name
        and (not worker_only or "worker" in s["labels"])
    )


class TestWorkerMetricsEquivalence:
    def test_parallel_counters_match_serial(self):
        spec = small_spec()
        with use_registry() as serial_registry:
            serial = SweepExecutor(jobs=1).run(spec)
        with use_registry() as parallel_registry:
            parallel = SweepExecutor(jobs=4).run(spec)

        assert parallel.cells == serial.cells  # results unchanged

        serial_runs = counter_total(serial_registry, "sim_runs_total")
        assert serial_runs == 2 * 2 * 4
        assert counter_total(
            parallel_registry, "sim_runs_total", worker_only=True
        ) == serial_runs
        # Updates are counted per cell in workers; totals must agree.
        serial_updates = counter_total(serial_registry, "sim_updates_total")
        assert counter_total(
            parallel_registry, "sim_updates_total", worker_only=True
        ) == serial_updates

    def test_worker_labels_are_present_and_disjoint(self):
        with use_registry() as registry:
            SweepExecutor(jobs=4).run(small_spec())
        workers = {
            s["labels"]["worker"]
            for s in registry.snapshot()["counters"]
            if s["name"] == "sim_runs_total" and "worker" in s["labels"]
        }
        assert len(workers) > 1
        assert all(w.startswith("chunk-") for w in workers)

    def test_executor_level_metrics_stay_unlabeled(self):
        with use_registry() as registry:
            SweepExecutor(jobs=4).run(small_spec())
        assert registry.value("exec_tasks_total", mode="parallel") == 1.0
        histogram = registry.get("exec_task_seconds")
        assert histogram is not None and histogram.count > 1

    def test_unobserved_parallel_run_ships_no_telemetry(self):
        result = SweepExecutor(jobs=2).run(small_spec())
        assert result.cells  # no registry installed: still correct


class TestWorkerSpanAdoption:
    def test_parallel_spans_match_serial_count(self):
        spec = small_spec()
        with use_tracer() as serial_tracer:
            SweepExecutor(jobs=1).run(spec)
        with use_tracer() as parallel_tracer:
            SweepExecutor(jobs=4).run(spec)
        # A pass covers costs x vehicles cells, however the trips were
        # cut into worker blocks.
        serial_sims, parallel_sims = (
            sum(record.attrs["costs"] * record.attrs["vehicles"]
                for record in tracer.spans_named("simulate_trip_batch"))
            for tracer in (serial_tracer, parallel_tracer))
        assert serial_sims == parallel_sims == 16

    def test_adopted_spans_carry_worker_attr_and_parent(self):
        with use_tracer() as tracer:
            SweepExecutor(jobs=4).run(small_spec())
        (root,) = tracer.spans_named("sweep_execute")
        adopted = [s for s in tracer.spans if "worker" in s.attrs]
        assert adopted
        ids = {s.span_id for s in tracer.spans}
        for span in adopted:
            assert span.attrs["worker"].startswith("chunk-")
            # Every adopted span's parent resolves inside this tracer.
            assert span.parent_id in ids or span.parent_id is None
        # Adopted roots hang off the executor's sweep_execute span.
        roots = [s for s in adopted
                 if s.parent_id == root.span_id]
        assert roots
