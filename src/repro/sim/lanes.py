"""The lane dispatcher: how independent (trip, policy) runs execute.

The update decision is made onboard, from the object's own deviation
(§3.1–3.3), so the cells of the §3.4 grid and the vehicles of a fleet
alike are independent *lanes*.  :func:`simulate_lanes` is the one place
that decides how lanes run — a kernel pass for every group of lanes the
kernel supports, :meth:`~repro.sim.engine.PolicySimulation.run` (the
reference loop) for every other lane — and since lanes never interact,
the grouping cannot change a result.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.policy import UpdatePolicy
from repro.sim.engine import PolicySimulation, TripResult, kernel_lane
from repro.sim.grid import GridTrip, TickGrid
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch


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


__all__ = ["simulate_lanes"]
