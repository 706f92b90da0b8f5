"""Execution of (trip, policy) runs: tick-grid caching + sweep executor.

:func:`repro.exec.executor.simulate_lanes` runs any set of independent
(trip, policy) lanes — a kernel pass per group of kernel lanes, the
reference loop for every other lane.  :class:`SweepExecutor` sits on
it: it decomposes sweep grids into independent (policy, update-cost,
trip) cells, shares each trip's precomputed tick-grid kinematics across
all the cells that consume it, and aggregates the results in canonical
order, in-process.
"""

from repro.exec.cache import GridTrip, TickGrid, TripTickCache
from repro.exec.executor import SweepCell, SweepExecutor, cell_seed

__all__ = [
    "GridTrip",
    "TickGrid",
    "TripTickCache",
    "SweepCell",
    "SweepExecutor",
    "cell_seed",
]
