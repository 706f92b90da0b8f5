"""The §3.4 sweep: tick-grid caching + the sweep executor.

:class:`SweepExecutor` decomposes sweep grids into independent
(policy, update-cost, trip) cells, shares each trip's precomputed
tick-grid kinematics across all the cells that consume it, runs them
through :func:`repro.sim.lanes.simulate_lanes` and aggregates the
results in canonical order, in-process.
"""

from repro.exec.cache import GridTrip, TickGrid, TripTickCache
from repro.exec.executor import SweepExecutor

__all__ = [
    "GridTrip",
    "TickGrid",
    "TripTickCache",
    "SweepExecutor",
]
