"""Deterministic (parallel) execution of simulation sweeps.

The §3.4 grid is embarrassingly parallel: every (policy, update-cost,
trip) cell is an independent simulation run.  :class:`SweepExecutor`
decomposes a :class:`~repro.experiments.sweep.SweepSpec` into those
cells and runs them a policy at a time — every update cost of a policy
in one pass of the vectorized kernel where it applies, cell by cell
through the scalar engine otherwise — serially, or as (policy,
trip-block) rectangles fanned out over a ``ProcessPoolExecutor``.  The
cells are re-assembled in canonical (policy, cost, trip) order before
aggregating — so the resulting
:class:`~repro.experiments.sweep.SweepResult` is float-for-float
identical no matter the job count or the order in which workers finish.

Determinism stack, bottom to top:

* every cell simulation is a pure function of (trip kinematics, policy,
  C, dt) — no RNG is drawn at run time (each cell still carries a
  stable seed, derived from ``spec.seed`` and its grid coordinates, so
  future stochastic components inherit schedule-independence for free);
* trip kinematics reach workers as prebuilt :class:`TickGrid` arrays
  (workers never rebuild trips, so there is no rebuild to diverge);
* results are keyed by cell index and aggregated in spec order, never
  in completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from repro.core.policy import UpdatePolicy
from repro.errors import ExperimentError
from repro.exec.cache import GridTrip, TickGrid, TripTickCache
from repro.experiments.sweep import (
    SweepResult,
    SweepSpec,
    build_curves,
)
from repro.obs.live.windows import get_live
from repro.obs.registry import get_registry, get_tracer, span
from repro.sim.engine import PolicySimulation, supports_fast_path
from repro.sim.metrics import TripMetrics, aggregate_metrics
from repro.sim.speed_curves import SpeedCurve
from repro.sim.trip import Trip
from repro.vec import vectorization_default
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One independent unit of sweep work: (policy, cost, trip).

    ``seed`` is a stable function of the spec seed and the cell's grid
    coordinates — identical across serial/parallel execution and across
    runs — reserved for stochastic simulation components (noise models)
    so that adding randomness later cannot break order-independence.
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


def _family_cells(spec: SweepSpec, policy_index: int, start: int,
                  stop: int) -> list[SweepCell]:
    """One policy's cells over trips ``[start, stop)``, in (cost, trip) order."""
    return [
        SweepCell(
            policy_index=policy_index,
            cost_index=c,
            trip_index=t,
            seed=cell_seed(spec.seed, policy_index, c, t),
        )
        for c in range(len(spec.update_costs))
        for t in range(start, stop)
    ]


def _decompose(spec: SweepSpec) -> list[SweepCell]:
    """All cells of the spec grid in canonical (policy, cost, trip) order."""
    return [
        cell
        for p in range(len(spec.policy_names))
        for cell in _family_cells(spec, p, 0, spec.num_curves)
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


def _simulate_cell(spec: SweepSpec, grid: TickGrid,
                   cell: SweepCell) -> TripMetrics:
    """Run one cell against its tick grid (pure; process-agnostic)."""
    policy = _make_policy(spec, cell.policy_index, cell.cost_index)
    simulation = PolicySimulation(
        GridTrip(grid), policy, dt=spec.dt, grid=grid
    )
    return simulation.run().metrics


#: Smallest trip block worth dispatching to the vectorized engine.
#: Below this the per-tick NumPy call overhead outweighs the scalar
#: loop (the crossover sits around a few dozen vehicles); above it the
#: batch amortizes that overhead across the whole fleet row.
_MIN_VEC_TRIPS = 32


def _pack(grids: list[TickGrid], dt: float,
          vectorize: bool) -> VecTripBatch | None:
    """The trips as one batch, or ``None`` when they must run scalar.

    Batch layout requirements: at least :data:`_MIN_VEC_TRIPS` trips to
    amortize the array setup, and grids that share the spec's tick
    layout.
    """
    if (not vectorize or len(grids) < _MIN_VEC_TRIPS
            or not _uniform_grids(grids, dt)):
        return None
    return VecTripBatch.from_grids(grids)


def _run_family(spec: SweepSpec, policy_index: int, start: int,
                grids: list[TickGrid],
                batch: VecTripBatch | None) -> list[TripMetrics]:
    """One policy's (cost x trip) rectangle over ``grids``.

    ``grids`` are the trips from index ``start`` on and ``batch`` is
    their packing (or ``None``).  A packed rectangle whose policies all
    sit in the engine's fast-path family is one pass of the vectorized
    kernel, every update cost at once; anything else falls back to
    :func:`_simulate_cell` per cell — same results, scalar speed.
    Results come in (cost, trip) order either way.
    """
    if batch is not None:
        policies = [_make_policy(spec, policy_index, c)
                    for c in range(len(spec.update_costs))]
        if all(supports_fast_path(policy) for policy in policies):
            return [
                result.metrics for result in
                simulate_batch(batch, policies, collect_events=False)
            ]
    return [
        _simulate_cell(spec, grids[cell.trip_index - start], cell)
        for cell in _family_cells(spec, policy_index, start,
                                  start + len(grids))
    ]


def _uniform_grids(grids: list[TickGrid], dt: float) -> bool:
    """Whether every grid shares the spec tick layout (batchable)."""
    first = grids[0]
    if first.dt != dt:
        return False
    return all(
        grid.dt == first.dt
        and grid.num_ticks == first.num_ticks
        and grid.duration == first.duration
        for grid in grids
    )


@dataclass(frozen=True, slots=True)
class _WorkerState:
    """What a pool worker needs besides its task: installed once per
    worker by the pool initializer so tasks only carry three integers."""

    spec: SweepSpec
    grids: list[TickGrid]
    vectorize: bool


_WORKER: _WorkerState | None = None


def _init_worker(state: _WorkerState) -> None:
    global _WORKER
    _WORKER = state


def _run_rectangle(
    rectangle: tuple[int, int, int],
) -> tuple[list[TripMetrics], float, dict | None, list | None]:
    """Run one ``(policy index, trip start, trip stop)`` rectangle in a worker.

    Returns ``(metrics in (cost, trip) order, secs, metrics snapshot,
    span dicts)``.
    The parent's registry/tracer objects arrive here through fork
    inheritance, but mutations to them are lost with the worker process
    — so when the parent is observing, the rectangle runs under *fresh*
    worker-local instances and ships their contents back as plain data
    for the parent to merge (:meth:`MetricsRegistry.merge_snapshot`,
    :meth:`Tracer.adopt_spans`).  When nobody observes, the fast path
    returns no telemetry at all.
    """
    state = _WORKER
    if state is None:
        raise ExperimentError(
            "sweep worker ran a task before its initializer installed "
            "the spec and grids"
        )
    policy_index, first, stop = rectangle
    grids = state.grids[first:stop]
    observed = get_registry().enabled
    traced = get_tracer().enabled
    start = perf_counter()
    if not observed and not traced:
        batch = _pack(grids, state.spec.dt, state.vectorize)
        results = _run_family(state.spec, policy_index, first, grids, batch)
        return results, perf_counter() - start, None, None
    from contextlib import ExitStack

    from repro.obs.registry import use_registry, use_tracer

    with ExitStack() as stack:
        registry = stack.enter_context(use_registry()) if observed else None
        tracer = stack.enter_context(use_tracer()) if traced else None
        results = _run_family(state.spec, policy_index, first, grids, None)
        snapshot = registry.snapshot() if registry is not None else None
        span_dicts = tracer.to_dicts() if tracer is not None else None
    return results, perf_counter() - start, snapshot, span_dicts


def _pool_context():
    """Fork where available (cheap on Linux), default context elsewhere."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class SweepExecutor:
    """Runs sweep grids deterministically, serially or in parallel.

    ``jobs=1`` executes in-process; ``jobs>1`` fans (policy, trip-block)
    rectangles out over a process pool.  Either way the same tick-grid cache backs every cell
    and the output is byte-identical to the legacy serial loop (the
    parallel-equivalence tests assert exact float equality).

    The executor (and its :class:`TripTickCache`) may be reused across
    ``run`` calls: passing the same trip objects again reuses their
    grids, which is how the ablation tables share kinematics across
    policies.
    """

    def __init__(self, jobs: int = 1,
                 cache: TripTickCache | None = None,
                 vectorize: bool | None = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else TripTickCache()
        if vectorize is None:
            vectorize = vectorization_default()
        self.vectorize = bool(vectorize)

    def run(self, spec: SweepSpec,
            curves: list[SpeedCurve] | None = None,
            trips: list[Trip] | None = None) -> SweepResult:
        """Execute the full (policy x cost x trip) grid of ``spec``.

        ``curves`` overrides the spec-seeded curve set; ``trips``
        additionally overrides trip construction (callers that reuse
        trip objects across several ``run`` calls get tick-grid cache
        hits across them).
        """
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

        registry = get_registry()
        observed = registry.enabled
        start = perf_counter()
        mode = "parallel" if self.jobs > 1 else "serial"
        with span("sweep_execute", jobs=self.jobs, cells=len(cells),
                  policies=len(spec.policy_names),
                  costs=len(spec.update_costs), trips=spec.num_curves):
            if self.jobs == 1:
                # Each cell fetches its grid through the cache, so the
                # cache's hit rate reflects the actual cross-cell
                # sharing (all but the first lookup per trip hit).
                grids = [
                    self.cache.grid_for(trips[cell.trip_index], spec.dt)
                    for cell in cells
                ][:spec.num_curves]
                # The vectorized engine emits one span per batch and no
                # per-tick instruments, so it only runs when nobody is
                # observing; results are identical either way.
                batch = _pack(
                    grids, spec.dt,
                    self.vectorize and not observed
                    and not get_tracer().enabled,
                )
                cell_metrics = [
                    metrics
                    for p in range(len(spec.policy_names))
                    for metrics in _run_family(spec, p, 0, grids, batch)
                ]
            else:
                # Workers receive prebuilt grids (one cache lookup per
                # trip here; the sharing happens inside each worker).
                grids = [self.cache.grid_for(trip, spec.dt)
                         for trip in trips]
                cell_metrics = self._run_parallel(spec, grids)
        elapsed = perf_counter() - start

        live = get_live()
        if live.enabled:
            if self.jobs == 1:
                # Parallel runs feed progress per finished chunk in
                # _run_parallel; serial runs land it here in one go.
                live.inc("exec_cells_completed", float(len(cells)))
            live.observe("exec_sweep_seconds", elapsed)

        if observed:
            registry.counter(
                "exec_tasks_total",
                help="Sweep executions dispatched through the executor.",
                mode=mode,
            ).inc()
            registry.counter(
                "exec_cells_total",
                help="Simulation cells executed by the executor.",
                mode=mode,
            ).inc(len(cells))
            registry.histogram(
                "exec_pool_seconds",
                help="Wall-clock seconds per sweep execution.",
                mode=mode,
            ).observe(elapsed)

        return SweepResult(spec=spec, cells=self._aggregate(spec, cell_metrics))

    def _run_parallel(self, spec: SweepSpec,
                      grids: list[TickGrid]) -> list[TripMetrics]:
        """Fan (policy, trip-block) rectangles out over a process pool.

        A rectangle spans every update cost, so a worker's vectorized
        pass covers the cost axis exactly as the serial one does.
        Results return in cell order.
        """
        num_policies = len(spec.policy_names)
        num_costs = len(spec.update_costs)
        num_trips = spec.num_curves
        # A handful of rectangles per worker balances load (some trips
        # fire more updates than others) against dispatch overhead; a
        # vectorizing worker needs _MIN_VEC_TRIPS trips per block.
        blocks = max(1, math.ceil(self.jobs * 4 / num_policies))
        block = max(math.ceil(num_trips / blocks),
                    _MIN_VEC_TRIPS if self.vectorize else 1)
        rectangles = [
            (p, first, min(first + block, num_trips))
            for p in range(num_policies)
            for first in range(0, num_trips, block)
        ]

        registry = get_registry()
        observed = registry.enabled
        results: list[TripMetrics | None] = (
            [None] * (num_policies * num_costs * num_trips)
        )
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(rectangles)),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(_WorkerState(spec, grids, self.vectorize),),
        ) as pool:
            futures = [pool.submit(_run_rectangle, rectangle)
                       for rectangle in rectangles]
            for chunk_index, (rectangle, future) in enumerate(
                    zip(rectangles, futures)):
                (chunk_results, task_seconds,
                 snapshot, span_dicts) = future.result()
                worker = f"chunk-{chunk_index}"
                if observed:
                    registry.histogram(
                        "exec_task_seconds",
                        help="Wall-clock seconds per worker task (chunk).",
                    ).observe(task_seconds)
                    if snapshot is not None:
                        registry.merge_snapshot(snapshot, worker=worker)
                tracer = get_tracer()
                if tracer.enabled and span_dicts:
                    tracer.adopt_spans(span_dicts, worker=worker)
                live = get_live()
                if live.enabled:
                    live.inc("exec_cells_completed",
                             float(len(chunk_results)))
                policy_index, first, stop = rectangle
                width = stop - first
                if len(chunk_results) != num_costs * width:
                    raise ExperimentError(
                        f"rectangle {rectangle} returned "
                        f"{len(chunk_results)} results, expected "
                        f"{num_costs * width}"
                    )
                for c in range(num_costs):
                    base = (policy_index * num_costs + c) * num_trips + first
                    results[base:base + width] = (
                        chunk_results[c * width:(c + 1) * width]
                    )
        return results  # type: ignore[return-value]

    @staticmethod
    def _aggregate(spec: SweepSpec, cell_metrics: list[TripMetrics]):
        """Group per-cell metrics back into the spec-ordered result grid.

        ``cell_metrics`` is indexed like :func:`_decompose`'s output, so
        the per-(policy, cost) trip lists are rebuilt in trip order —
        the same order (and therefore the same float summation) as the
        legacy serial loop, regardless of completion order.
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
]
