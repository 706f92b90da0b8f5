"""The executor's vectorized dispatch is invisible in the results.

A sweep run with vectorization on must equal the scalar run cell for
cell, serially and across worker counts, and the dispatch gate must
actually route eligible cells through the batch engine (and only
eligible ones).
"""

import pytest

pytest.importorskip("numpy")

from repro.errors import ExperimentError
from repro.exec import SweepExecutor, TickGrid
from repro.exec import executor as executor_module
from repro.experiments.sweep import SweepSpec, build_curves
from repro.sim.trip import Trip


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        policy_names=("dl", "ail", "cil"),
        update_costs=(1.0, 5.0),
        num_curves=6,
        duration=10.0,
        dt=0.1,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


@pytest.fixture
def vec_gate(monkeypatch):
    """Lower the dispatch floor so small test sweeps vectorize."""
    monkeypatch.setattr(executor_module, "_MIN_VEC_TRIPS", 2)


def test_vectorized_serial_run_equals_scalar(vec_gate):
    spec = small_spec()
    scalar = SweepExecutor(jobs=1, vectorize=False).run(spec)
    vec = SweepExecutor(jobs=1, vectorize=True).run(spec)
    assert vec == scalar


def test_vectorized_parallel_run_equals_serial(vec_gate):
    spec = small_spec()
    serial = SweepExecutor(jobs=1, vectorize=True).run(spec)
    parallel = SweepExecutor(jobs=4, vectorize=True).run(spec)
    assert parallel == serial


def test_vectorized_dispatch_actually_engages(vec_gate, monkeypatch):
    calls = []
    original = executor_module._simulate_cell

    def spy(spec, grid, cell):
        calls.append(cell)
        return original(spec, grid, cell)

    monkeypatch.setattr(executor_module, "_simulate_cell", spy)
    spec = small_spec()
    SweepExecutor(jobs=1, vectorize=True).run(spec)
    assert calls == []  # every cell went through the batch engine
    SweepExecutor(jobs=1, vectorize=False).run(spec)
    assert len(calls) == 3 * 2 * 6


def test_one_kernel_pass_per_policy_family(vec_gate, monkeypatch):
    passes = []
    original = executor_module.simulate_batch

    def spy(batch, policies, collect_events=True):
        passes.append((batch, [policy.update_cost for policy in policies]))
        return original(batch, policies, collect_events=collect_events)

    monkeypatch.setattr(executor_module, "simulate_batch", spy)
    spec = small_spec()
    SweepExecutor(jobs=1, vectorize=True).run(spec)
    assert [costs for _, costs in passes] == [[1.0, 5.0]] * 3
    assert all(batch is passes[0][0] for batch, _ in passes)  # packed once


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_every_job_count_yields_the_scalar_cells(vec_gate, monkeypatch, jobs):
    """Cell for cell, not only aggregate for aggregate."""
    spec = small_spec(
        policy_names=("dl", "ail", "fixed-threshold", "cil"),
        policy_kwargs={"fixed-threshold": {"bound": 0.5}},
        update_costs=(0.0, 1.0, 5.0),
        num_curves=7,  # the last parallel trip block falls below the floor
    )
    trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
             for i, curve in enumerate(build_curves(spec))]
    grids = [TickGrid.build(trip, spec.dt) for trip in trips]
    expected = [
        executor_module._simulate_cell(spec, grids[cell.trip_index], cell)
        for cell in executor_module._decompose(spec)
    ]
    captured = []
    aggregate = SweepExecutor._aggregate

    def spy(spec, cell_metrics):
        captured.append(cell_metrics)
        return aggregate(spec, cell_metrics)

    monkeypatch.setattr(SweepExecutor, "_aggregate", staticmethod(spy))
    SweepExecutor(jobs=jobs, vectorize=True).run(spec, trips=trips)
    assert captured == [expected]


def test_worker_task_without_initializer_is_a_domain_error():
    assert executor_module._WORKER is None
    with pytest.raises(ExperimentError):
        executor_module._run_rectangle((0, 0, 1))


def test_dispatch_floor_falls_back_to_scalar(monkeypatch):
    calls = []
    original = executor_module._simulate_cell

    def spy(spec, grid, cell):
        calls.append(cell)
        return original(spec, grid, cell)

    monkeypatch.setattr(executor_module, "_simulate_cell", spy)
    spec = small_spec(num_curves=2)  # below _MIN_VEC_TRIPS
    scalar = SweepExecutor(jobs=1, vectorize=False).run(spec)
    calls.clear()
    vec = SweepExecutor(jobs=1, vectorize=True).run(spec)
    assert vec == scalar
    assert len(calls) == 3 * 2 * 2  # every cell stayed scalar


def test_environment_default_disables_vectorization(monkeypatch):
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    assert SweepExecutor(jobs=1).vectorize is False
    monkeypatch.delenv("REPRO_VECTORIZE")
    assert SweepExecutor(jobs=1).vectorize is True


def test_explicit_flag_overrides_environment(monkeypatch):
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    assert SweepExecutor(jobs=1, vectorize=True).vectorize is True
