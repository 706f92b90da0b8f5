"""Unit tests for repro.exec.executor.

The headline guarantee: a sweep is float-for-float identical to one
reference run per cell, aggregated in spec order, on every run.
"""

import pytest

from repro.core.policies import make_policy
from repro.errors import ExperimentError
from repro.exec import SweepExecutor, TickGrid
from repro.exec.executor import _decompose
from repro.experiments.sweep import SweepSpec, build_curves, run_policy_sweep
from repro.sim.metrics import aggregate_metrics
from repro.sim.trip import Trip
from tests.oracle.policy_reference import reference_run


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        policy_names=("dl", "ail", "cil"),
        update_costs=(1.0, 5.0, 20.0),
        num_curves=4,
        duration=15.0,
        dt=1.0 / 30.0,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def reference_sweep(spec: SweepSpec):
    """The legacy serial loop — no executor, no kernel, spec order: every
    cell alone through the reference tick loop on its own tick grid."""
    curves = build_curves(spec)
    trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
             for i, curve in enumerate(curves)]
    cells = {}
    for policy_name in spec.policy_names:
        by_cost = {}
        for cost in spec.update_costs:
            metrics = [
                reference_run(
                    TickGrid.build(trip, spec.dt),
                    make_policy(policy_name, cost,
                                **spec.policy_kwargs.get(policy_name, {})),
                ).metrics
                for trip in trips
            ]
            by_cost[cost] = aggregate_metrics(metrics)
        cells[policy_name] = by_cost
    return cells


class TestDecomposition:
    def test_canonical_order_and_count(self):
        cells = _decompose(small_spec())
        assert len(cells) == 3 * 3 * 4
        # trip index varies fastest, policy slowest.
        assert cells[:2] == [(0, 0, 0), (0, 0, 1)]
        assert cells[4] == (0, 1, 0)
        assert cells[-1] == (2, 2, 3)


class TestSerialEquivalence:
    def test_serial_executor_matches_legacy_loop(self):
        """Executor output (fused kernel passes) == one reference run
        per cell, with exact float equality on every aggregate, and a
        second run repeats it."""
        spec = small_spec()
        expected = reference_sweep(spec)
        result = SweepExecutor(jobs=1).run(spec)
        assert result.spec == spec
        assert result.cells == expected
        assert SweepExecutor(jobs=1).run(spec).cells == expected

    def test_policy_kwargs_reach_every_cell(self):
        spec = small_spec(
            policy_names=("fixed-threshold",),
            policy_kwargs={"fixed-threshold": {"bound": 0.5}},
            num_curves=3,
        )
        assert SweepExecutor().run(spec).cells == reference_sweep(spec)

    def test_run_policy_sweep_delegates(self):
        spec = small_spec(num_curves=2, duration=10.0)
        assert run_policy_sweep(spec).cells == SweepExecutor().run(spec).cells


class TestParallelEquivalence:
    def test_parallel_deterministic_across_runs(self):
        """Two fresh executors on the same spec agree cell for cell."""
        spec = small_spec(num_curves=3)
        first = SweepExecutor(jobs=1).run(spec)
        second = SweepExecutor(jobs=1).run(spec)
        assert first.cells == second.cells


class TestExecutorSurface:
    def test_invalid_jobs_rejected(self):
        # The sweep runs in-process: 1 is the one legal value.
        for jobs in (0, 2):
            with pytest.raises(ExperimentError, match="in-process"):
                SweepExecutor(jobs=jobs)

    def test_trip_count_must_match_spec(self):
        spec = small_spec(num_curves=3)
        trips = [Trip.synthetic(curve, route_id=f"t-{i}")
                 for i, curve in enumerate(build_curves(spec))]
        with pytest.raises(ExperimentError):
            SweepExecutor().run(spec, trips=trips[:2])

    def test_cache_shared_across_runs(self):
        """Reusing the executor with the same trips reuses their grids,
        and a run looks each trip's grid up once, whatever its cells."""
        spec = small_spec(num_curves=2, duration=5.0,
                          policy_names=("ail", "dl"),
                          update_costs=(5.0, 2.0))
        trips = [Trip.synthetic(curve, route_id=f"t-{i}")
                 for i, curve in enumerate(build_curves(spec))]
        executor = SweepExecutor()
        executor.run(spec, trips=trips)
        cache = executor.cache
        assert (cache.misses, cache.hits) == (2, 0)
        assert cache.misses + cache.hits == spec.num_curves
        executor.run(spec, trips=trips)
        assert (cache.misses, cache.hits) == (2, 2)
        assert cache.misses + cache.hits == 2 * spec.num_curves
