"""Deterministic execution of the §3.4 sweep grid.

:class:`SweepExecutor` decomposes a
:class:`~repro.experiments.sweep.SweepSpec` into its independent
(policy, cost, trip) cells, hands them to
:func:`~repro.sim.lanes.simulate_lanes` in one in-process call, and
aggregates the results in canonical (policy, cost, trip) order — the
same order, and therefore the same float summation, as one reference
run per cell.

Every cell simulation is a pure function of (trip kinematics, policy,
C, dt): no RNG is drawn at run time.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.policy import UpdatePolicy
from repro.errors import ExperimentError
from repro.exec.cache import TickGrid, TripTickCache
from repro.obs.probe import probe
from repro.sim.engine import supports_fast_path
from repro.sim.lanes import simulate_lanes
from repro.sim.metrics import TripMetrics, aggregate_metrics
from repro.sim.speed_curves import SpeedCurve
from repro.sim.trip import Trip

if TYPE_CHECKING:  # pragma: no cover - experiments imports sim.fleet, a caller
    from repro.experiments.sweep import SweepResult, SweepSpec


def _decompose(spec: SweepSpec) -> list[tuple[int, int, int]]:
    """All ``(policy, cost, trip)`` index triples of the spec grid, in
    canonical order: trip fastest, policy slowest."""
    return [
        (p, c, t)
        for p in range(len(spec.policy_names))
        for c in range(len(spec.update_costs))
        for t in range(spec.num_curves)
    ]


def _make_policy(spec: SweepSpec, policy_index: int,
                 cost_index: int) -> UpdatePolicy:
    """The policy of grid row ``(policy_index, cost_index)``."""
    from repro.core.policies import make_policy

    policy_name = spec.policy_names[policy_index]
    return make_policy(
        policy_name,
        spec.update_costs[cost_index],
        **spec.policy_kwargs.get(policy_name, {}),
    )


def _run_cells(spec: SweepSpec, cells: list[tuple[int, int, int]],
               grids: list[TickGrid]) -> list[TripMetrics]:
    """The cells' metrics, in cell order; ``grids`` are indexed by trip.

    The kernel only reads a policy's kind and parameters, so its cells
    share one instance per (policy, cost).  Any other cell runs
    ``policy.decide``, which may keep state across ticks
    (``AdaptivePolicy``): a fresh instance each.
    """
    shared: dict[tuple[int, int], UpdatePolicy] = {}
    lanes = []
    for policy_index, cost_index, trip_index in cells:
        key = (policy_index, cost_index)
        policy = shared.get(key)
        if policy is None:
            policy = _make_policy(spec, *key)
            if supports_fast_path(policy):
                shared[key] = policy
        lanes.append((grids[trip_index], policy))
    return [result.metrics for result in simulate_lanes(
        lanes, spec.dt, collect_events=False)]


class SweepExecutor:
    """Runs sweep grids deterministically, in-process.

    One tick-grid cache backs every cell, and the output is
    float-for-float that of one reference run per cell (the
    equivalence tests assert exact equality).  ``jobs`` has one legal
    value, 1: the sweep runs in the calling process.

    The executor (and its :class:`TripTickCache`) may be reused across
    ``run`` calls: passing the same trip objects again reuses their
    grids, which is how the ablation tables share kinematics across
    policies.
    """

    def __init__(self, jobs: int = 1,
                 cache: TripTickCache | None = None) -> None:
        if jobs != 1:
            raise ExperimentError(
                f"the sweep runs in-process: jobs must be 1, got {jobs}")
        self.cache = cache if cache is not None else TripTickCache()

    def run(self, spec: SweepSpec,
            curves: list[SpeedCurve] | None = None,
            trips: list[Trip] | None = None) -> SweepResult:
        """Execute the full (policy x cost x trip) grid of ``spec``.

        ``curves`` overrides the spec-seeded curve set; ``trips``
        additionally overrides trip construction (callers that reuse
        trip objects across several ``run`` calls get tick-grid cache
        hits across them).
        """
        from repro.experiments.sweep import SweepResult, build_curves

        if trips is None:
            if curves is None:
                curves = build_curves(spec)
            trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
                     for i, curve in enumerate(curves)]
        if len(trips) != spec.num_curves:
            raise ExperimentError(
                f"spec expects {spec.num_curves} trips, got {len(trips)}"
            )
        cells = _decompose(spec)

        p = probe()
        start = perf_counter()
        with p.span("sweep_execute", cells=len(cells),
                    policies=len(spec.policy_names),
                    costs=len(spec.update_costs), trips=spec.num_curves):
            # One grid lookup per trip: every cell of a trip shares it.
            grids = [self.cache.grid_for(trip, spec.dt) for trip in trips]
            cell_metrics = _run_cells(spec, cells, grids)
        elapsed = perf_counter() - start

        if p.enabled:
            p.count("exec_tasks_total")
            p.count("exec_cells_total", len(cells))
            p.observe("exec_pool_seconds", elapsed)

        return SweepResult(spec=spec, cells=self._aggregate(spec, cell_metrics))

    @staticmethod
    def _aggregate(spec: SweepSpec, cell_metrics: list[TripMetrics]):
        """Group per-cell metrics back into the spec-ordered result grid.

        ``cell_metrics`` is indexed like :func:`_decompose`'s output, so
        the per-(policy, cost) trip lists are rebuilt in trip order —
        the same order (and therefore the same float summation) as the
        legacy serial loop.
        """
        num_costs = len(spec.update_costs)
        num_trips = spec.num_curves
        cells: dict[str, dict[float, object]] = {}
        for p, policy_name in enumerate(spec.policy_names):
            by_cost = {}
            for c, update_cost in enumerate(spec.update_costs):
                base = (p * num_costs + c) * num_trips
                by_cost[update_cost] = aggregate_metrics(
                    cell_metrics[base:base + num_trips]
                )
            cells[policy_name] = by_cost
        return cells

__all__ = ["SweepExecutor"]
