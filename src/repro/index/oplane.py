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
bounding rectangle taken, and the box extruded over the time of each
run of slabs with one rectangle.  Any point of the o-plane lies in some
run, so index search can never miss an object (false positives are
filtered by the exact refinement of Theorems 5–6).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from repro.core.bounds import DeviationBounds
from repro.core.position import PositionAttribute
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.errors import IndexError_
from repro.geometry.bbox import Box3D, Rect2D
from repro.routes.route import Route

#: A travel range as bytes: tells ``-0.0`` from ``0.0``, as a stored box does.
_pack_span = struct.Struct("2d").pack
#: Samples per slab of the index decomposition, past its start.
_SAMPLES = 4


def _sample_times(edges: Sequence[float], samples: int) -> list[float]:
    """``samples + 1`` times per slab between consecutive ``edges``."""
    return [lo + (hi - lo) * i / samples
            for lo, hi in zip(edges, edges[1:]) for i in range(samples + 1)]


@lru_cache(maxsize=64)
def slab_grid(horizon: float,
              slab_minutes: float) -> tuple[tuple[float, ...], ...]:
    """The elapsed-time slabs every o-plane of ``(horizon, slab_minutes)``
    is cut on, built once: their edges (slab ``k`` is ``[edges[k],
    edges[k + 1]]``), their sample times and, per slab ``k``, the widest
    of slabs ``k...``."""
    edges = [0.0]
    while edges[-1] < horizon - 1e-12:
        edges.append(min(edges[-1] + slab_minutes, horizon))
    widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
    return (tuple(edges), tuple(_sample_times(edges, _SAMPLES)),
            tuple(accumulate(reversed(widths), max))[::-1])


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
        if elapsed_hi < elapsed_lo:
            raise IndexError_("elapsed_hi must be >= elapsed_lo")
        edges = [elapsed_lo, elapsed_hi]
        return self._travel_ranges(self._start_travel(),
                                   _sample_times(edges, samples), edges,
                                   samples)[0]

    def _travel_ranges(self, start_travel: float, times: Sequence[float],
                       edges: Sequence[float],
                       samples: int) -> list[tuple[float, float]]:
        """Travel ranges of the slabs between consecutive ``edges``, from
        one evaluation of the bounds at all their sample ``times``: one
        ``elapsed >= 0`` check."""
        step = samples + 1
        slows, fasts = self.bounds.sample(times)
        v = self.attribute.speed
        centers = [start_travel + v * t for t in times]
        lows = [center - slow for center, slow in zip(centers, slows)]
        highs = [center + fast for center, fast in zip(centers, fasts)]
        length = self.route.length
        ranges = []
        for k, (elapsed_lo, elapsed_hi) in enumerate(zip(edges, edges[1:])):
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
                        slab_minutes: float) -> int:
        """The first slab from which on every sampled travel range is
        provably the route-end stub ``(L, L)`` (DESIGN.md, "Screens");
        the slab count for bounds without a slow ceiling."""
        edges, _, widest = slab_grid(self.horizon, slab_minutes)
        ceiling = self.bounds.ceiling
        if ceiling is None:
            return len(widest)
        v = self.attribute.speed
        # v * largest / _SAMPLES: the largest margin of slabs k...
        for k, (lo, largest) in enumerate(zip(edges, widest)):
            low = (start_travel + v * lo) - ceiling(lo)
            if low - v * largest / _SAMPLES >= self.route.length:
                return k
        return len(widest)

    def slab_rects(self, slab_minutes: float = 5.0
                   ) -> tuple[Sequence[float], list[tuple[Rect2D, int]]]:
        """The slab edges, and ``(rectangle, first slab)`` at each change
        of travel span: a slab has the rectangle of the last change at or
        before it.  Only the slabs before the route-end screen are
        sampled; the stub ``(L, L)`` after them is one more span."""
        if not slab_minutes > 0:
            raise IndexError_(f"slab_minutes must be positive, got {slab_minutes}")
        edges, times, _ = slab_grid(self.horizon, slab_minutes)
        start_travel = self._start_travel()
        moving = self._route_end_slab(start_travel, slab_minutes)
        spans = self._travel_ranges(start_travel,
                                    times[:moving * (_SAMPLES + 1)],
                                    edges[:moving + 1], _SAMPLES)
        if moving < len(edges) - 1:
            spans.append((self.route.length,) * 2)
        direction = self.attribute.direction
        return edges, [
            (self.route.interval_rect(lo, hi, direction), k)
            for k, (lo, hi) in enumerate(spans)
            if not k or _pack_span(lo, hi) != _pack_span(*spans[k - 1])]

    def runs(self, slab_minutes: float = 5.0) -> list[Box3D]:
        """The o-plane's R-tree entries: one box per maximal run of
        consecutive slabs whose rectangles are ``==``, spanning the
        run's time with its first slab's rectangle."""
        edges, changes = self.slab_rects(slab_minutes)
        starts = [(rect, first) for k, (rect, first) in enumerate(changes)
                  if not k or rect != changes[k - 1][0]]
        start = self.start_time
        ends = [first for _, first in starts[1:]] + [len(edges) - 1]
        return [Box3D(rect.min_x, rect.min_y, start + edges[first],
                      rect.max_x, rect.max_y, start + edges[end])
                for (rect, first), end in zip(starts, ends)]

    def __repr__(self) -> str:
        return (
            f"OPlane(route={self.route.route_id!r}, "
            f"start={self.start_time:.2f}, horizon={self.horizon:.1f})"
        )

__all__ = [
    "OPlane",
    "slab_grid",
]
