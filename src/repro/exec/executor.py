"""Deterministic execution of independent (trip, policy) runs.

The update decision is made onboard, from the object's own deviation
(§3.1–3.3), so the cells of the §3.4 grid and the vehicles of a fleet
alike are independent *lanes*.  :func:`simulate_lanes` is the one place
that decides how lanes run — a kernel pass for every group of lanes the
kernel supports, :meth:`~repro.sim.engine.PolicySimulation.run` (the
reference loop) for every other lane — and since lanes never interact,
the grouping cannot change a result.

:class:`SweepExecutor` decomposes a
:class:`~repro.experiments.sweep.SweepSpec` into its cells, hands them
to it in one in-process call, and aggregates the results in canonical
(policy, cost, trip) order — the same order, and therefore the same
float summation, as one reference run per cell.

Every cell simulation is a pure function of (trip kinematics, policy,
C, dt): no RNG is drawn at run time.  Each cell still carries a stable
seed, derived from ``spec.seed`` and its grid coordinates, so a future
stochastic component inherits order-independence for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.core.policy import UpdatePolicy
from repro.errors import ExperimentError
from repro.exec.cache import GridTrip, TickGrid, TripTickCache
from repro.obs.probe import probe
from repro.sim.engine import (
    PolicySimulation,
    TripResult,
    kernel_lane,
    supports_fast_path,
)
from repro.sim.metrics import TripMetrics, aggregate_metrics
from repro.sim.speed_curves import SpeedCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch

if TYPE_CHECKING:  # pragma: no cover - experiments imports sim.fleet, a caller
    from repro.experiments.sweep import SweepResult, SweepSpec


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One independent unit of sweep work: (policy, cost, trip).

    ``seed`` is a stable function of the spec seed and the cell's grid
    coordinates — identical across runs — reserved for stochastic
    simulation components (noise models) so that adding randomness
    later cannot break order-independence.
    """

    policy_index: int
    cost_index: int
    trip_index: int
    seed: int


def cell_seed(spec_seed: int, policy_index: int, cost_index: int,
              trip_index: int) -> int:
    """A stable 31-bit per-cell seed from the spec seed and coordinates."""
    mixed = (
        spec_seed * 1_000_003
        ^ policy_index * 8_191
        ^ cost_index * 131_071
        ^ trip_index * 524_287
    )
    return mixed & 0x7FFFFFFF


def _decompose(spec: SweepSpec) -> list[SweepCell]:
    """All cells of the spec grid in canonical (policy, cost, trip) order."""
    return [
        SweepCell(policy_index=p, cost_index=c, trip_index=t,
                  seed=cell_seed(spec.seed, p, c, t))
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


def simulate_lanes(lanes: Sequence[tuple[Trip | TickGrid, UpdatePolicy]],
                   dt: float, *, collect_events: bool = True,
                   record_series: bool = False) -> list[TripResult]:
    """Run every ``(trip, policy)`` lane; results come in lane order.

    A lane names its trip or the trip's prebuilt :class:`TickGrid`.
    Every lane the kernel supports (:func:`kernel_lane`, on a grid of
    this ``dt``) joins the pass of its (kind, tick layout) group, one
    row per set of lane parameters; rows of one kind over the same
    grids share a pass.  Every other lane is :meth:`PolicySimulation.run`
    on its grid.  Each lane runs its whole trip alone, so lanes must not
    share a stateful policy.  ``collect_events=False`` lets kernel
    passes skip the event lists; ``record_series`` attaches every
    lane's per-tick series.
    """
    grids = [trip if isinstance(trip, TickGrid) else TickGrid.build(trip, dt)
             for trip, _ in lanes]
    policies = [policy for _, policy in lanes]
    results: list[TripResult | None] = [None] * len(lanes)
    rows: dict[tuple, list[int]] = {}
    for i, (grid, policy) in enumerate(zip(grids, policies)):
        lane = kernel_lane(policy)
        if grid.dt == dt and lane is not None:
            rows.setdefault((lane[0], grid.num_ticks, grid.duration, lane[1]),
                            []).append(i)
    # The same grids (by identity) under several rows or kinds are
    # packed once; each kind's rows are one pass over the batch.
    passes: dict[tuple[TickGrid, ...], dict[tuple, list[list[int]]]] = {}
    for (kind, *_), row in rows.items():
        columns = tuple(grids[i] for i in row)
        passes.setdefault(columns, {}).setdefault(kind, []).append(row)
    for columns, kinds in passes.items():
        batch = VecTripBatch.from_grids(columns)
        for kind_rows in kinds.values():
            flat = simulate_batch(
                batch, [policies[row[0]] for row in kind_rows],
                collect_events=collect_events, record_series=record_series)
            for c, row in enumerate(kind_rows):
                for j, i in enumerate(row):
                    results[i] = flat[c * len(columns) + j]
    for i, result in enumerate(results):
        if result is None:
            results[i] = PolicySimulation(GridTrip(grids[i]), policies[i],
                                          dt=dt, grid=grids[i]).run(
                                              record_series)
    return results  # type: ignore[return-value]


def _run_cells(spec: SweepSpec, cells: list[SweepCell],
               grids: list[TickGrid]) -> list[TripMetrics]:
    """The cells' metrics, in cell order; ``grids`` are indexed by trip.

    The kernel only reads a policy's kind and parameters, so its cells
    share one instance per (policy, cost).  Any other cell runs
    ``policy.decide``, which may keep state across ticks
    (``AdaptivePolicy``): a fresh instance each.
    """
    shared: dict[tuple[int, int], UpdatePolicy] = {}
    lanes = []
    for cell in cells:
        key = (cell.policy_index, cell.cost_index)
        policy = shared.get(key)
        if policy is None:
            policy = _make_policy(spec, *key)
            if supports_fast_path(policy):
                shared[key] = policy
        lanes.append((grids[cell.trip_index], policy))
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

__all__ = [
    "SweepCell",
    "SweepExecutor",
    "cell_seed",
    "simulate_lanes",
]
