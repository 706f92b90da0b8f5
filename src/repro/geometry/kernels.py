"""The geometric predicates, on raw coordinates.

This module is *the* implementation of every predicate the may/must
refinement of Theorems 5–6 runs per candidate: point-to-segment
projection and distance, segment intersection, and the closed-polygon
containment and intersection tests.  The methods of
:class:`~repro.geometry.segment.Segment`,
:class:`~repro.geometry.polygon.Polygon` and
:class:`~repro.geometry.polyline.Polyline`, and
:func:`repro.dbms.query.distance_range_to_polyline`, are thin wrappers
that unpack their arguments and call in here; there is no second copy.

Contract
--------
* **Floats in, floats out.**  A segment is four floats ``ax, ay, bx,
  by``; a polygon is its ``edges`` — a tuple of ``(ax, ay, bx, by)``
  rows in ring order, closing edge last — plus its ``bounds``
  ``(min_x, min_y, max_x, max_y)``; an open polyline (a *chain*) is two
  parallel coordinate sequences ``xs, ys``.  ``Polygon`` and
  ``Polyline`` are immutable and build these once, at construction.
  Nothing here allocates a ``Point`` or a ``Segment``.
* **Same expressions, same order.**  Every arithmetic expression is the
  one the ``Point``-algebra formulation evaluates, operand for operand
  and in the same association, so results are equal bit for bit — not
  merely close.  ``tests/oracle/geometry_reference.py`` keeps that
  formulation and ``tests/geometry/test_kernels_differential.py``
  compares with ``==``.
* **Closed regions.**  Boundary points are inside: a point within
  :data:`~repro.geometry.point.EPSILON` of an edge (and inside the
  polygon's bounding rectangle) is contained, and touching segments
  intersect.
* **``EPSILON`` semantics.**  Tolerances are absolute and applied
  exactly where the predicates always applied them: ``<= EPSILON`` on
  cross products, parametric ranges, edge distances and crossing gaps;
  ``<= EPSILON * EPSILON`` on squared lengths.
* **Short-circuit order** is part of the contract too (endpoint
  containment before edge crossings, edges in ring order); it decides
  nothing about results, only that the work done is the same.
* **Screens decide only what the predicate provably would.**  The chain
  functions skip a segment whose own bounding box shows the exact test
  can only answer ``False`` — with a margin (:func:`screen_margin`) that
  covers the predicates' tolerances *and* their rounding — and anything
  nearer falls through to the unchanged predicate.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry.point import EPSILON

_EPSILON_SQUARED = EPSILON * EPSILON

#: Sixteen units in the last place: more than the few roundings between
#: two coordinates and a value compared against them.
ROUNDING = 2.0 ** -48
#: Clearance per length cubed that rounding in ``intersection_point``'s
#: cross products can feign (see :func:`screen_margin`).
_CROSS_ROUNDING = 8.0 * 2.0 ** -52 / EPSILON

#: A polygon's boundary: ``(ax, ay, bx, by)`` per edge, in ring order.
Edges = tuple[tuple[float, float, float, float], ...]
#: ``(min_x, min_y, max_x, max_y)``.
Bounds = tuple[float, float, float, float]


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------

def project_fraction(ax: float, ay: float, bx: float, by: float,
                     px: float, py: float) -> float:
    """Fraction in [0, 1] of the point of ``a-b`` closest to ``p``; on a
    segment no longer than ``EPSILON``, that of its nearer end (``a`` on
    a tie)."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom <= _EPSILON_SQUARED:
        sx = px - ax
        sy = py - ay
        ex = px - bx
        ey = py - by
        return 1.0 if ex * ex + ey * ey < sx * sx + sy * sy else 0.0
    raw = ((px - ax) * dx + (py - ay) * dy) / denom
    # min(1.0, max(0.0, raw)), operand choice included.
    if raw > 0.0:
        return raw if raw < 1.0 else 1.0
    return 0.0


def distance_to_point(ax: float, ay: float, bx: float, by: float,
                      px: float, py: float) -> float:
    """Euclidean distance from ``p`` to the closed segment ``a-b``."""
    fraction = project_fraction(ax, ay, bx, by, px, py)
    return math.hypot(
        ax + (bx - ax) * fraction - px, ay + (by - ay) * fraction - py
    )


def intersection_point(ax: float, ay: float, bx: float, by: float,
                       cx: float, cy: float, dx: float,
                       dy: float) -> tuple[float, float] | None:
    """The unique common point of segments ``a-b`` and ``c-d``, if any.

    ``None`` when they miss each other or are parallel (collinear
    overlap included: no unique answer).
    """
    rx = bx - ax
    ry = by - ay
    sx = dx - cx
    sy = dy - cy
    r_cross_s = rx * sy - ry * sx
    if abs(r_cross_s) <= EPSILON:
        return None
    qx = cx - ax
    qy = cy - ay
    t = (qx * sy - qy * sx) / r_cross_s
    u = (qx * ry - qy * rx) / r_cross_s
    if -EPSILON <= t <= 1.0 + EPSILON and -EPSILON <= u <= 1.0 + EPSILON:
        return ax + rx * t, ay + ry * t
    return None


def overlaps_collinear(ax: float, ay: float, bx: float, by: float,
                       cx: float, cy: float, dx: float, dy: float) -> bool:
    """True when ``a-b`` and ``c-d`` are collinear and their ranges overlap."""
    rx = bx - ax
    ry = by - ay
    sx = dx - cx
    sy = dy - cy
    if abs(rx * sy - ry * sx) > EPSILON:
        return False
    # The separation vector must be parallel to the (non-degenerate)
    # direction; when both segments are points, require coincidence.
    if math.hypot(rx, ry) > EPSILON:
        axis_x, axis_y = rx, ry
    else:
        axis_x, axis_y = sx, sy
    if math.hypot(axis_x, axis_y) <= EPSILON:
        return abs(ax - cx) <= EPSILON and abs(ay - cy) <= EPSILON
    if abs((cx - ax) * axis_y - (cy - ay) * axis_x) > EPSILON:
        return False
    if abs(axis_x) >= abs(axis_y):
        a0, a1 = (bx, ax) if bx < ax else (ax, bx)
        b0, b1 = (dx, cx) if dx < cx else (cx, dx)
    else:
        a0, a1 = (by, ay) if by < ay else (ay, by)
        b0, b1 = (dy, cy) if dy < cy else (cy, dy)
    return a0 <= b1 + EPSILON and b0 <= a1 + EPSILON


def segments_intersect(ax: float, ay: float, bx: float, by: float,
                       cx: float, cy: float, dx: float, dy: float) -> bool:
    """True when closed segments ``a-b`` and ``c-d`` share a point."""
    return (
        intersection_point(ax, ay, bx, by, cx, cy, dx, dy) is not None
        or overlaps_collinear(ax, ay, bx, by, cx, cy, dx, dy)
    )


# ----------------------------------------------------------------------
# Polygons (closed regions)
# ----------------------------------------------------------------------

def ring_contains_point(edges: Edges, bounds: Bounds,
                        px: float, py: float) -> bool:
    """True when ``p`` is inside the polygon or on its boundary.

    Even-odd ray casting behind an explicit boundary check, so boundary
    points are deterministically inside.
    """
    min_x, min_y, max_x, max_y = bounds
    if not (min_x <= px <= max_x and min_y <= py <= max_y):
        return False
    for ax, ay, bx, by in edges:
        if distance_to_point(ax, ay, bx, by, px, py) <= EPSILON:
            return True
    inside = False
    for xj, yj, xi, yi in edges:
        if (yi > py) != (yj > py):
            x_cross = xi + (py - yi) * (xj - xi) / (yj - yi)
            if px < x_cross:
                inside = not inside
    return inside


def ring_intersects_segment(edges: Edges, bounds: Bounds, ax: float,
                            ay: float, bx: float, by: float) -> bool:
    """Theorem 5's core: the closed polygon touches segment ``a-b``."""
    if (ring_contains_point(edges, bounds, ax, ay)
            or ring_contains_point(edges, bounds, bx, by)):
        return True
    for cx, cy, dx, dy in edges:
        if segments_intersect(cx, cy, dx, dy, ax, ay, bx, by):
            return True
    return False


def ring_contains_segment(edges: Edges, bounds: Bounds, ax: float,
                          ay: float, bx: float, by: float) -> bool:
    """Theorem 6's core: segment ``a-b`` lies wholly in the closed polygon.

    Endpoint containment suffices for a convex polygon; in general the
    segment might dip outside in between, so the midpoints of the
    pieces cut by boundary crossings are checked as well.
    """
    if not (ring_contains_point(edges, bounds, ax, ay)
            and ring_contains_point(edges, bounds, bx, by)):
        return False
    crossings = [0.0, 1.0]
    rx = bx - ax
    ry = by - ay
    length_squared = rx * rx + ry * ry
    for cx, cy, dx, dy in edges:
        hit = intersection_point(ax, ay, bx, by, cx, cy, dx, dy)
        if hit is None:
            continue
        if length_squared <= _EPSILON_SQUARED:
            continue
        t = ((hit[0] - ax) * rx + (hit[1] - ay) * ry) / length_squared
        crossings.append(min(1.0, max(0.0, t)))
    crossings.sort()
    for t0, t1 in zip(crossings, crossings[1:]):
        if t1 - t0 <= EPSILON:
            continue
        fraction = (t0 + t1) / 2.0
        if not ring_contains_point(edges, bounds, ax + rx * fraction,
                                   ay + ry * fraction):
            return False
    return True


# ----------------------------------------------------------------------
# Polylines (chains of segments)
# ----------------------------------------------------------------------

def chain_project(xs: Sequence[float], ys: Sequence[float],
                  cumulative: Sequence[float], px: float,
                  py: float) -> tuple[float, float]:
    """``(arc_length, distance)`` of the chain point closest to ``p``.

    ``cumulative[i]`` is the arc length at vertex ``i``.  A later
    segment wins only when closer by more than ``EPSILON``.
    """
    best_arc = 0.0
    best_dist = float("inf")
    ax = xs[0]
    ay = ys[0]
    for idx in range(1, len(xs)):
        bx = xs[idx]
        by = ys[idx]
        fraction = project_fraction(ax, ay, bx, by, px, py)
        dist = math.hypot(
            ax + (bx - ax) * fraction - px, ay + (by - ay) * fraction - py
        )
        if dist < best_dist - EPSILON:
            best_dist = dist
            best_arc = (cumulative[idx - 1]
                        + fraction * math.hypot(ax - bx, ay - by))
        ax = bx
        ay = by
    return best_arc, best_dist


def screen_margin(edges: Edges, bounds: Bounds, low_x: float, low_y: float,
                  high_x: float, high_y: float) -> float:
    """Clearance from ``bounds`` beyond which a segment of the chain boxed
    by ``low_x .. high_y`` cannot make :func:`ring_intersects_segment`
    answer ``True`` (derivation: DESIGN.md, "Screens").

    With ``W``, ``w``, ``U`` the larger side of ``bounds``, of the chain's
    box and of the box around both, ``C`` the largest coordinate
    magnitude and ``l`` the ring's shortest edge, the branches that can
    answer ``True`` reach this far along either axis:

    * :func:`ring_contains_point`: 0 — outside ``bounds`` is rejected
      exactly, before the ``EPSILON`` edge test.
    * :func:`intersection_point`: ``2 * EPSILON * U`` for ``t, u`` in
      ``[-EPSILON, 1 + EPSILON]``, plus ``_CROSS_ROUNDING * U * W * w``
      because the computed ``t, u`` are rounded cross products over a
      divisor only known to exceed ``EPSILON`` — the dominant term.
    * :func:`overlaps_collinear`: ``EPSILON`` along the major axis but
      ``2 * sqrt(2) * EPSILON / l`` across it, offsets being cross
      products with the *unnormalised* axis; no finite margin (and no
      screen) for a ring with a zero-length edge.

    ``ROUNDING * (C + U)`` covers the rounding of the comparisons.
    """
    shortest = math.inf
    for ax, ay, bx, by in edges:
        dx = abs(bx - ax)
        dy = abs(by - ay)
        if dx < dy:
            dx = dy
        if dx < shortest:
            shortest = dx
    if not shortest > 0.0:
        return math.inf
    min_x, min_y, max_x, max_y = bounds
    ring = max(max_x - min_x, max_y - min_y)
    chain = max(high_x - low_x, high_y - low_y)
    low_x = min(low_x, min_x)
    low_y = min(low_y, min_y)
    high_x = max(high_x, max_x)
    high_y = max(high_y, max_y)
    span = max(high_x - low_x, high_y - low_y)
    return (EPSILON * (1.0 + 3.0 * span + 3.0 / shortest)
            + _CROSS_ROUNDING * span * ring * chain
            + ROUNDING * (span + max(-low_x, -low_y, high_x, high_y)))


def ring_intersects_chain(edges: Edges, bounds: Bounds,
                          xs: Sequence[float], ys: Sequence[float]) -> bool:
    """True when any part of the chain touches the closed polygon.

    Screened twice: the whole chain against ``bounds``, then each
    segment against ``bounds`` grown by :func:`screen_margin`.
    """
    min_x, min_y, max_x, max_y = bounds
    low_x = min(xs)
    low_y = min(ys)
    high_x = max(xs)
    high_y = max(ys)
    if not (min_x <= high_x and low_x <= max_x
            and min_y <= high_y and low_y <= max_y):
        return False
    margin = screen_margin(edges, bounds, low_x, low_y, high_x, high_y)
    min_x -= margin
    min_y -= margin
    max_x += margin
    max_y += margin
    bx = xs[0]
    by = ys[0]
    for i in range(1, len(xs)):
        ax, ay, bx, by = bx, by, xs[i], ys[i]
        if ((ax > max_x and bx > max_x) or (ax < min_x and bx < min_x)
                or (ay > max_y and by > max_y)
                or (ay < min_y and by < min_y)):
            continue
        if ring_intersects_segment(edges, bounds, ax, ay, bx, by):
            return True
    return False


def ring_contains_chain(edges: Edges, bounds: Bounds,
                        xs: Sequence[float], ys: Sequence[float]) -> bool:
    """True when the whole chain lies inside the closed polygon.

    A vertex outside ``bounds`` is an endpoint :func:`ring_contains_point`
    rejects exactly — no margin — so such a chain needs no segment test.
    """
    min_x, min_y, max_x, max_y = bounds
    if (min(xs) < min_x or max(xs) > max_x
            or min(ys) < min_y or max(ys) > max_y):
        return False
    for i in range(len(xs) - 1):
        if not ring_contains_segment(edges, bounds, xs[i], ys[i],
                                     xs[i + 1], ys[i + 1]):
            return False
    return True


def chain_distance_range(px: float, py: float, xs: Sequence[float],
                         ys: Sequence[float]) -> tuple[float, float]:
    """Min and max Euclidean distance from ``p`` to the chain.

    The minimum is attained on a segment; the maximum of a convex
    function over a chain is attained at a vertex.
    """
    minimum = min(
        distance_to_point(xs[i], ys[i], xs[i + 1], ys[i + 1], px, py)
        for i in range(len(xs) - 1)
    )
    maximum = max(
        math.hypot(x - px, y - py) for x, y in zip(xs, ys)
    )
    return minimum, maximum


def chain_within_distance(px: float, py: float, radius: float,
                          xs: Sequence[float],
                          ys: Sequence[float]) -> tuple[bool, bool]:
    """``(minimum <= radius, maximum <= radius)`` of
    :func:`chain_distance_range`, without the two distances.

    The first segment within ``radius`` settles the minimum and the
    first vertex beyond it the maximum.  A segment whose bounding box
    lies more than ``radius`` from ``p`` along an axis is not measured:
    its closest point is computed inside that box up to a few roundings
    of the coordinates involved, which ``ROUNDING`` times their largest
    magnitude covers, and ``hypot`` is no smaller than either leg.
    """
    reach = radius + ROUNDING * (radius + max(
        abs(px), abs(py), max(xs), -min(xs), max(ys), -min(ys)))
    bx = xs[0]
    by = ys[0]
    for i in range(1, len(xs)):
        ax, ay, bx, by = bx, by, xs[i], ys[i]
        if ((ax - px > reach and bx - px > reach)
                or (px - ax > reach and px - bx > reach)
                or (ay - py > reach and by - py > reach)
                or (py - ay > reach and py - by > reach)):
            continue
        if distance_to_point(ax, ay, bx, by, px, py) <= radius:
            break
    else:
        return False, False
    for x, y in zip(xs, ys):
        if math.hypot(x - px, y - py) > radius:
            return True, False
    return True, True


__all__ = [
    "Bounds",
    "Edges",
    "ROUNDING",
    "chain_distance_range",
    "chain_project",
    "chain_within_distance",
    "distance_to_point",
    "intersection_point",
    "overlaps_collinear",
    "project_fraction",
    "ring_contains_chain",
    "ring_contains_point",
    "ring_contains_segment",
    "ring_intersects_chain",
    "ring_intersects_segment",
    "screen_margin",
    "segments_intersect",
]
