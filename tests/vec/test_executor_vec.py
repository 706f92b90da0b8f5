"""The executor's kernel dispatch is invisible in the results.

A sweep must equal, cell for cell, each cell run alone through the
reference loop (``PolicySimulation._run_generic`` on a fresh policy,
aggregated as ``SweepExecutor._aggregate`` does) — and the dispatcher
must route every cell the kernel
supports through a pass, whatever the sweep's size, and only those.
"""

import pytest

pytest.importorskip("numpy")

from repro.exec import SweepExecutor, TickGrid
from repro.exec import executor as executor_module
from repro.experiments.sweep import SweepSpec, build_curves
from repro.sim.trip import Trip
from tests.oracle.policy_reference import reference_run, watch_dispatch


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


def sweep_trips(spec):
    return [Trip.synthetic(curve, route_id=f"sweep-{i}")
            for i, curve in enumerate(build_curves(spec))]


def reference_cells(spec, trips=None):
    """Every cell alone through ``_run_generic``, a fresh policy each."""
    grids = [TickGrid.build(trip, spec.dt)
             for trip in trips or sweep_trips(spec)]
    return [
        reference_run(grids[trip], executor_module._make_policy(
            spec, policy, cost)).metrics
        for policy, cost, trip in executor_module._decompose(spec)
    ]


def reference_sweep(spec):
    return SweepExecutor._aggregate(spec, reference_cells(spec))


@pytest.fixture
def dispatch(monkeypatch):
    """``(kernel passes, lanes run alone)`` — see ``watch_dispatch``."""
    return watch_dispatch(monkeypatch)


def test_vectorized_serial_run_equals_scalar():
    spec = small_spec()
    vec = SweepExecutor(jobs=1).run(spec)
    assert repr(vec.cells) == repr(reference_sweep(spec))


def test_vectorized_dispatch_actually_engages(dispatch):
    passes, runs = dispatch
    SweepExecutor(jobs=1).run(small_spec())
    # Every cell went through the batch engine, none through a run.
    assert sum(len(costs) * batch.size for batch, costs in passes) == 3 * 2 * 6
    assert runs == []


def test_one_kernel_pass_per_policy_family(dispatch):
    passes, _ = dispatch
    SweepExecutor(jobs=1).run(small_spec())
    assert [costs for _, costs in passes] == [[1.0, 5.0]] * 3
    assert all(batch is passes[0][0] for batch, _ in passes)  # packed once


def test_a_sweep_yields_the_scalar_cells(monkeypatch):
    """Cell for cell, not only aggregate for aggregate."""
    spec = small_spec(
        policy_names=("dl", "ail", "fixed-threshold", "cil"),
        policy_kwargs={"fixed-threshold": {"bound": 0.5}},
        update_costs=(0.0, 1.0, 5.0),
        num_curves=7,
    )
    trips = sweep_trips(spec)
    expected = reference_cells(spec, trips)
    captured = []
    aggregate = SweepExecutor._aggregate

    def spy(spec, cell_metrics):
        captured.append(cell_metrics)
        return aggregate(spec, cell_metrics)

    monkeypatch.setattr(SweepExecutor, "_aggregate", staticmethod(spy))
    SweepExecutor().run(spec, trips=trips)
    assert repr(captured) == repr([expected])


@pytest.mark.parametrize("num_curves", [1, 2])
def test_a_sweep_of_any_size_rides_kernel_passes(dispatch, num_curves):
    """No lane floor: one trip per cost row is still a pass."""
    passes, runs = dispatch
    spec = small_spec(num_curves=num_curves)
    expected = repr(reference_sweep(spec))
    assert repr(SweepExecutor(jobs=1).run(spec).cells) == expected
    assert [(batch.size, costs) for batch, costs in passes] == [
        (num_curves, [1.0, 5.0])] * 3
    assert runs == []


def test_stateful_policy_cells_each_get_a_fresh_instance(dispatch):
    """``AdaptivePolicy`` keeps a speed window across ticks: a cell that
    inherits another trip's window decides differently."""
    passes, runs = dispatch
    spec = small_spec(policy_names=("adaptive", "ail"))
    result = SweepExecutor().run(spec)
    assert repr(result.cells) == repr(reference_sweep(spec))
    assert runs == ["adaptive"] * (2 * 6)
    assert [costs for _, costs in passes] == [[1.0, 5.0]]
    # The case can tell: one instance per (policy, cost) row moves cells.
    grids = [TickGrid.build(trip, spec.dt) for trip in sweep_trips(spec)]
    shared = [reference_run(grid, policy).metrics
              for policy in (executor_module._make_policy(spec, 0, c)
                             for c in range(2))
              for grid in grids]
    assert repr(shared) != repr(reference_cells(spec)[:len(shared)])
