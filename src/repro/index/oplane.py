"""O-planes: an object's possible positions in (x, y, t) time-space (§4.1).

For a moving object o with declared speed ``v``, the paper defines two
distance functions of elapsed time ``t``:

    u(t) = v t + BF(t)      (upper-o: farthest o can be along the route)
    l(t) = v t - BS(t)      (lower-o: nearest o can be)

where ``BF``/``BS`` are the policy's fast/slow deviation bounds.  The
*o-plane* is the set of uncertainty intervals — the route strip between
the points at distances ``l(t)`` and ``u(t)`` — one per time instant
``t >= 0``.

For indexing, the o-plane is conservatively decomposed into 3-D boxes
over *time slabs*: for each slab the travel-range swept by the
uncertainty interval is computed, the corresponding route strip's 2-D
bounding rectangle taken, and the box extruded over the slab's absolute
time span.  Any point of the o-plane lies in some slab box, so index
search can never miss an object (false positives are filtered by the
exact refinement of Theorems 5–6).
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate
from dataclasses import dataclass, field

from repro.core.bounds import DeviationBounds
from repro.core.position import PositionAttribute
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.errors import IndexError_
from repro.geometry.bbox import Box3D
from repro.routes.route import Route

#: A travel range as bytes: tells ``-0.0`` from ``0.0``, as a stored box does.
_pack_span = struct.Struct("2d").pack


@dataclass(frozen=True, slots=True)
class OPlane:
    """The o-plane of one position-attribute value.

    ``start_time`` is the attribute's ``P.starttime``; the plane covers
    absolute times ``[start_time, start_time + horizon]`` (the paper's
    cutoff ``Z`` — an upper limit on when the trip ends — bounds the
    horizon).
    """

    attribute: PositionAttribute
    route: Route
    bounds: DeviationBounds
    horizon: float
    #: ``attribute.start_travel(route)`` when the builder already has it
    #: (the database memoises it per installed update); projected on
    #: demand otherwise.
    start_travel: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise IndexError_(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.route.route_id != self.attribute.route_id:
            raise IndexError_(
                f"attribute is on route {self.attribute.route_id!r}, "
                f"got {self.route.route_id!r}"
            )

    @property
    def start_time(self) -> float:
        return self.attribute.starttime

    @property
    def end_time(self) -> float:
        return self.attribute.starttime + self.horizon

    def covers_time(self, t: float) -> bool:
        """True when ``t`` lies inside the plane's time span."""
        return self.start_time - 1e-9 <= t <= self.end_time + 1e-9

    def uncertainty_at(self, t: float) -> UncertaintyInterval:
        """The uncertainty interval at absolute time ``t``."""
        if not self.covers_time(t):
            raise IndexError_(
                f"time {t} outside o-plane span "
                f"[{self.start_time}, {self.end_time}]"
            )
        return uncertainty_interval(
            self.attribute, self.route, self.bounds, t, self._start_travel()
        )

    def _start_travel(self) -> float:
        """Travel distance of ``P.startpoint`` along the route."""
        if self.start_travel is not None:
            return self.start_travel
        return self.attribute.start_travel(self.route)

    def travel_range(self, elapsed_lo: float, elapsed_hi: float,
                     samples: int = 4) -> tuple[float, float]:
        """Conservative travel-distance range over an elapsed-time span.

        ``l`` and ``u`` are piecewise-smooth with at most one interior
        kink per slab (where a bound's min switches branch), so endpoint
        plus interior sampling with a small envelope margin is a sound
        over-approximation for the slab widths used here.
        """
        return self._travel_range(
            self._start_travel(), elapsed_lo, elapsed_hi, samples
        )

    def _travel_range(self, start_travel: float, elapsed_lo: float,
                      elapsed_hi: float,
                      samples: int = 4) -> tuple[float, float]:
        if elapsed_hi < elapsed_lo:
            raise IndexError_("elapsed_hi must be >= elapsed_lo")
        return self._travel_ranges(start_travel, [(elapsed_lo, elapsed_hi)],
                                   samples)[0]

    def _travel_ranges(self, start_travel: float,
                       slabs: list[tuple[float, float]],
                       samples: int) -> list[tuple[float, float]]:
        """Travel ranges of elapsed-time ``slabs``, from one evaluation of
        the bounds at every slab's samples: one ``elapsed >= 0`` check."""
        step = samples + 1
        times = [lo + (hi - lo) * i / samples
                 for lo, hi in slabs for i in range(step)]
        slows, fasts = self.bounds.sample(times)
        v = self.attribute.speed
        centers = [start_travel + v * t for t in times]
        lows = [center - slow for center, slow in zip(centers, slows)]
        highs = [center + fast for center, fast in zip(centers, fasts)]
        length = self.route.length
        ranges = []
        for k, (elapsed_lo, elapsed_hi) in enumerate(slabs):
            first = k * step
            # Envelope margin: within a slab each curve moves at most at
            # the maximum slope between samples; v covers the centre drift
            # and the bound slopes are at most v (slow) / declared-gap
            # (fast), both bounded by the per-sample drift of the sampled
            # extremes.  A half-sample of centre drift is a safe cushion
            # for the slabs and sample counts used by the index.
            margin = v * (elapsed_hi - elapsed_lo) / max(samples, 1)
            lo = max(min(lows[first:first + step]) - margin, 0.0)
            hi = min(max(highs[first:first + step]) + margin, length)
            if lo > hi:
                lo = hi
            ranges.append((lo, hi))
        return ranges

    def _route_end_slab(self, start_travel: float,
                        slabs: list[tuple[float, float]],
                        samples: int) -> int:
        """The first slab from which on every sampled travel range is
        provably the route-end stub ``(L, L)`` (DESIGN.md, "Screens");
        ``len(slabs)`` for bounds without a slow ceiling."""
        ceiling = self.bounds.ceiling
        if ceiling is None:
            return len(slabs)
        v = self.attribute.speed
        # M_k: the largest of _travel_ranges' margins over slabs k...
        largest = list(accumulate(reversed(
            [v * (hi - lo) / max(samples, 1) for lo, hi in slabs]), max))
        for k, (lo, _) in enumerate(slabs):
            low = (start_travel + v * lo) - ceiling(lo)
            if low - largest[-1 - k] >= self.route.length:
                return k
        return len(slabs)

    def boxes(self, slab_minutes: float = 5.0) -> list[Box3D]:
        """Decompose the o-plane into time-slab boxes for the R-tree."""
        if not slab_minutes > 0:
            raise IndexError_(f"slab_minutes must be positive, got {slab_minutes}")
        slabs: list[tuple[float, float]] = []
        elapsed = 0.0
        while elapsed < self.horizon - 1e-12:
            slab_end = min(elapsed + slab_minutes, self.horizon)
            slabs.append((elapsed, slab_end))
            elapsed = slab_end
        # One projection per plane; no samples past the route-end screen.
        start_travel = self._start_travel()
        moving = self._route_end_slab(start_travel, slabs, 4)
        ranges = self._travel_ranges(start_travel, slabs[:moving], 4)
        ranges += [(self.route.length,) * 2] * (len(slabs) - moving)
        boxes: list[Box3D] = []
        # Past the end of the route every slab clamps to one stub: a
        # travel range that repeats bit for bit keeps its rectangle.
        span = rect = None
        for (elapsed, slab_end), (lo, hi) in zip(slabs, ranges):
            packed = _pack_span(lo, hi)
            if packed != span:
                span = packed
                rect = self.route.interval_rect(
                    lo, hi, self.attribute.direction
                )
            boxes.append(
                Box3D.from_rect(
                    rect,
                    self.start_time + elapsed,
                    self.start_time + slab_end,
                )
            )
        return boxes

    def __repr__(self) -> str:
        return (
            f"OPlane(route={self.route.route_id!r}, "
            f"start={self.start_time:.2f}, horizon={self.horizon:.1f})"
        )

__all__ = [
    "OPlane",
]
