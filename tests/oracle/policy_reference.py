"""One (trip, policy) lane through the reference loop, by name.

``PolicySimulation.run`` sends a dl/ail/cil policy to the kernel, so a
test that compares the kernel with ``.run()`` compares it with itself.
The independent side is :meth:`PolicySimulation._run_generic` — an
:class:`~repro.sim.vehicle.OnboardComputer`, ``policy.decide`` and
:func:`~repro.core.bounds.bounds_for_policy`, tick by tick — which is
what every kernel-equivalence test (and ``bench_vec_kernels.py``) calls
through here.  Compare on ``repr``: ``-0.0`` and the last digit count.
"""

from __future__ import annotations

from repro.sim import lanes
from repro.sim.engine import PolicySimulation, TripResult
from repro.sim.grid import GridTrip


def reference_run(grid, policy, max_speed=None,
                  record_series=False) -> TripResult:
    """``policy`` over the trip of ``grid``, tick by tick.

    Hand each call its own instance of a stateful policy.
    """
    return PolicySimulation(GridTrip(grid), policy, dt=grid.dt,
                            max_speed=max_speed,
                            grid=grid)._run_generic(record_series)


def assert_same(result: TripResult, reference: TripResult, where=None) -> None:
    """Metrics and events equal on ``repr``."""
    assert repr(result.metrics) == repr(reference.metrics), where
    assert repr(result.updates) == repr(reference.updates), where


def watch_dispatch(monkeypatch):
    """Spy on the lane dispatcher; returns ``(passes, runs)``, filled as
    it works: each kernel pass as ``(batch, [update cost per row])`` and
    the policy name of each lane it ran through ``PolicySimulation.run``."""
    passes, runs = [], []
    simulate_batch = lanes.simulate_batch
    run = PolicySimulation.run

    def batch_spy(batch, policies, collect_events=True, record_series=False):
        passes.append((batch, [policy.update_cost for policy in policies]))
        return simulate_batch(batch, policies, collect_events=collect_events,
                              record_series=record_series)

    def run_spy(self, record_series=False):
        runs.append(self.policy.name)
        return run(self, record_series)

    monkeypatch.setattr(lanes, "simulate_batch", batch_spy)
    monkeypatch.setattr(PolicySimulation, "run", run_spy)
    return passes, runs
