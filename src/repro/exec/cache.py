"""Sharing tick grids across simulation cells.

Every (policy, update-cost) cell of the §3.4 grid that runs the same
trip reads the same :class:`~repro.sim.grid.TickGrid` (re-exported
here with :class:`GridTrip`).  A :class:`TripTickCache` builds each
trip's grid once, however many sweep runs ask for it.
"""

from __future__ import annotations

from repro.obs.probe import probe
from repro.sim.grid import GridTrip, TickGrid
from repro.sim.trip import Trip


class TripTickCache:
    """Shares :class:`TickGrid` objects across simulation cells.

    Keyed by trip identity and ``dt``.  A sweep looks each trip's grid
    up once and hands it to every (policy, update-cost) cell of the
    trip, so a hit is a later ``run`` on the same executor passing the
    same trip objects again.  The cache pins the trip objects it has
    seen, keeping the identity keys valid for its lifetime.
    """

    def __init__(self) -> None:
        self._grids: dict[tuple[int, float], tuple[Trip, TickGrid]] = {}
        self.hits = 0
        self.misses = 0

    def grid_for(self, trip: Trip, dt: float) -> TickGrid:
        """The (possibly cached) tick grid of ``trip`` at resolution ``dt``."""
        key = (id(trip), dt)
        entry = self._grids.get(key)
        if entry is not None:
            self.hits += 1
            grid = entry[1]
        else:
            grid = TickGrid.build(trip, dt)
            self._grids[key] = (trip, grid)
            self.misses += 1
        p = probe()
        if p.enabled:
            p.count("exec_cache_misses_total" if entry is None
                    else "exec_cache_hits_total")
        return grid

    def __len__(self) -> int:
        return len(self._grids)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Hit/miss accounting as a plain dict (for benchmark output)."""
        return {
            "entries": len(self._grids),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

__all__ = [
    "GridTrip",
    "TickGrid",
    "TripTickCache",
]
