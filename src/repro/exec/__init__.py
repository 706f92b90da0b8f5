"""Execution of (trip, policy) runs: tick-grid caching + sweep executor.

:func:`repro.exec.executor.simulate_lanes` runs any set of independent
(trip, policy) lanes — a kernel pass per group of kernel lanes, the
reference loop for every other lane.  The subsystem behind ``--jobs``
sits on it: it
decomposes sweep grids into independent (policy, update-cost, trip)
cells, shares each trip's precomputed tick-grid kinematics across all
the cells that consume it, and fans cells out over worker processes
with deterministic, order-independent reassembly — parallel results are
byte-identical to serial ones.
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
