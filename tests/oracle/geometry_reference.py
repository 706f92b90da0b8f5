"""The geometric predicates as ``Point``/``Segment`` dataclass algebra.

These are the bodies ``repro.geometry.segment``, ``.polygon``,
``.polyline`` and ``repro.dbms.query`` had before the predicates moved
onto raw coordinates (:mod:`repro.geometry.kernels`), frozen verbatim:
one ``Point`` or ``Segment`` allocation per intermediate value, edges
and segments rebuilt per call.  They are the oracle the float kernels
are compared against with exact ``==`` — same expressions, same
operation order, same ``EPSILON`` comparisons, same short-circuit
order — and must never be edited to follow the kernels.  One rule was
changed in both on purpose: ``project_fraction`` of a segment no longer
than ``EPSILON`` is its nearer end's (it was always the start's, which
put a chain's end point up to ``EPSILON`` from where it is).

Only ``Point``'s vector algebra and the plain accessors of ``Segment``,
``Polygon`` and ``Polyline`` (``start``/``end``, ``vertices``,
``length``, ``bounding_rect``) and ``Polyline``'s constructor are used
from ``src``; none of those changed.
"""

from __future__ import annotations

from repro.geometry.bbox import Rect2D
from repro.geometry.point import EPSILON, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


# ----------------------------------------------------------------------
# Segment
# ----------------------------------------------------------------------

def segment_length(segment: Segment) -> float:
    return segment.start.distance_to(segment.end)


def point_at_fraction(segment: Segment, fraction: float) -> Point:
    return segment.start.lerp(segment.end, fraction)


def project_fraction(segment: Segment, point: Point) -> float:
    direction = segment.end - segment.start
    denom = direction.dot(direction)
    if denom <= EPSILON * EPSILON:
        to_start = point - segment.start
        to_end = point - segment.end
        return 1.0 if to_end.dot(to_end) < to_start.dot(to_start) else 0.0
    raw = (point - segment.start).dot(direction) / denom
    return min(1.0, max(0.0, raw))


def closest_point(segment: Segment, point: Point) -> Point:
    return point_at_fraction(segment, project_fraction(segment, point))


def distance_to_point(segment: Segment, point: Point) -> float:
    return closest_point(segment, point).distance_to(point)


def intersection_point(segment: Segment, other: Segment) -> Point | None:
    p, r = segment.start, segment.end - segment.start
    q, s = other.start, other.end - other.start
    r_cross_s = r.cross(s)
    q_minus_p = q - p
    if abs(r_cross_s) <= EPSILON:
        return None
    t = q_minus_p.cross(s) / r_cross_s
    u = q_minus_p.cross(r) / r_cross_s
    if -EPSILON <= t <= 1.0 + EPSILON and -EPSILON <= u <= 1.0 + EPSILON:
        return p + r * t
    return None


def overlaps_collinear(segment: Segment, other: Segment) -> bool:
    r = segment.end - segment.start
    s = other.end - other.start
    if abs(r.cross(s)) > EPSILON:
        return False
    axis = r if r.norm() > EPSILON else s
    if axis.norm() <= EPSILON:
        return segment.start.almost_equal(other.start)
    if abs((other.start - segment.start).cross(axis)) > EPSILON:
        return False
    if abs(axis.x) >= abs(axis.y):
        a0, a1 = sorted((segment.start.x, segment.end.x))
        b0, b1 = sorted((other.start.x, other.end.x))
    else:
        a0, a1 = sorted((segment.start.y, segment.end.y))
        b0, b1 = sorted((other.start.y, other.end.y))
    return a0 <= b1 + EPSILON and b0 <= a1 + EPSILON


def intersects(segment: Segment, other: Segment) -> bool:
    return (intersection_point(segment, other) is not None
            or overlaps_collinear(segment, other))


# ----------------------------------------------------------------------
# Polygon
# ----------------------------------------------------------------------

def edges(polygon: Polygon) -> list[Segment]:
    verts = polygon.vertices
    return [
        Segment(verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    ]


def contains_point(polygon: Polygon, point: Point) -> bool:
    if not polygon.bounding_rect.contains_point(point):
        return False
    for edge in edges(polygon):
        if distance_to_point(edge, point) <= EPSILON:
            return True
    inside = False
    x, y = point.x, point.y
    verts = polygon.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i].x, verts[i].y
        xj, yj = verts[j].x, verts[j].y
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) * (xj - xi) / (yj - yi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def intersects_segment(polygon: Polygon, segment: Segment) -> bool:
    if (contains_point(polygon, segment.start)
            or contains_point(polygon, segment.end)):
        return True
    return any(intersects(edge, segment) for edge in edges(polygon))


def contains_segment(polygon: Polygon, segment: Segment) -> bool:
    if not (
        contains_point(polygon, segment.start)
        and contains_point(polygon, segment.end)
    ):
        return False
    crossings: list[float] = [0.0, 1.0]
    direction = segment.end - segment.start
    seg_len2 = direction.dot(direction)
    for edge in edges(polygon):
        hit = intersection_point(segment, edge)
        if hit is None:
            continue
        if seg_len2 <= EPSILON * EPSILON:
            continue
        t = (hit - segment.start).dot(direction) / seg_len2
        crossings.append(min(1.0, max(0.0, t)))
    crossings.sort()
    for t0, t1 in zip(crossings, crossings[1:]):
        if t1 - t0 <= EPSILON:
            continue
        midpoint = point_at_fraction(segment, (t0 + t1) / 2.0)
        if not contains_point(polygon, midpoint):
            return False
    return True


# ----------------------------------------------------------------------
# Polyline
# ----------------------------------------------------------------------

def segments(polyline: Polyline) -> list[Segment]:
    verts = polyline.vertices
    return [Segment(a, b) for a, b in zip(verts, verts[1:])]


def bounding_rect(polyline: Polyline) -> Rect2D:
    return Rect2D.from_points(polyline.vertices)


def project(polyline: Polyline, point: Point) -> tuple[float, float]:
    cumulative = [0.0]
    verts = polyline.vertices
    for a, b in zip(verts, verts[1:]):
        cumulative.append(cumulative[-1] + a.distance_to(b))
    best_arc = 0.0
    best_dist = float("inf")
    for idx, segment in enumerate(segments(polyline)):
        fraction = project_fraction(segment, point)
        candidate = point_at_fraction(segment, fraction)
        dist = candidate.distance_to(point)
        if dist < best_dist - EPSILON:
            best_dist = dist
            best_arc = cumulative[idx] + fraction * segment_length(segment)
    return best_arc, best_dist


def intersects_polyline(polygon: Polygon, polyline: Polyline) -> bool:
    if not polygon.bounding_rect.intersects(bounding_rect(polyline)):
        return False
    return any(intersects_segment(polygon, seg) for seg in segments(polyline))


def contains_polyline(polygon: Polygon, polyline: Polyline) -> bool:
    return all(contains_segment(polygon, seg) for seg in segments(polyline))


# ----------------------------------------------------------------------
# Query refinement (repro.dbms.query)
# ----------------------------------------------------------------------

def distance_range_to_polyline(center: Point,
                               geometry: Polyline) -> tuple[float, float]:
    minimum = min(
        distance_to_point(segment, center) for segment in segments(geometry)
    )
    maximum = max(
        vertex.distance_to(center) for vertex in geometry.vertices
    )
    return minimum, maximum


# ----------------------------------------------------------------------
# Arc length to geometry (repro.geometry.polyline, repro.routes.route)
# ----------------------------------------------------------------------
#
# ``Polyline.point_at`` / ``subline`` and ``Route.interval_polyline`` as
# they were before they moved onto one coordinate walk shared with
# ``Route.interval_rect``: a ``Segment`` and a ``Point`` per
# interpolation, a whole ``Polyline`` per strip.  ``subline`` keeps the
# fault it had — ``GeometryError`` when both ends of an interval a hair
# wider than ``EPSILON`` collapse onto one corner — so a test can tell
# "bit-identical wherever this succeeded" from "fixed where it did not".

def _arc_lengths(polyline: Polyline) -> list[float]:
    cumulative = [0.0]
    verts = polyline.vertices
    for a, b in zip(verts, verts[1:]):
        cumulative.append(cumulative[-1] + a.distance_to(b))
    return cumulative


def _segment_index_at(polyline: Polyline, distance: float) -> int:
    import bisect

    idx = bisect.bisect_right(_arc_lengths(polyline), distance) - 1
    return min(max(idx, 0), len(polyline.vertices) - 2)


def point_at(polyline: Polyline, distance: float) -> Point:
    distance = min(max(distance, 0.0), polyline.length)
    idx = _segment_index_at(polyline, distance)
    segment = Segment(polyline.vertices[idx], polyline.vertices[idx + 1])
    length = segment_length(segment)
    if length <= EPSILON:
        return segment.start
    return point_at_fraction(
        segment, (distance - _arc_lengths(polyline)[idx]) / length)


def subline(polyline: Polyline, from_distance: float,
            to_distance: float) -> Polyline:
    length = polyline.length
    lo = min(max(min(from_distance, to_distance), 0.0), length)
    hi = min(max(max(from_distance, to_distance), 0.0), length)
    start_point = point_at(polyline, lo)
    end_point = point_at(polyline, hi)
    if hi - lo <= EPSILON:
        nudge = min(lo + 1e-7, length)
        nudge_pt = point_at(polyline, nudge) if nudge > lo else start_point
        if start_point.distance_to(nudge_pt) <= EPSILON:
            nudge_pt = Point(start_point.x + 1e-7, start_point.y)
        return Polyline([start_point, nudge_pt])
    first_idx = _segment_index_at(polyline, lo)
    last_idx = _segment_index_at(polyline, hi)
    verts: list[Point] = [start_point]
    for idx in range(first_idx + 1, last_idx + 1):
        vertex = polyline.vertices[idx]
        if not verts[-1].almost_equal(vertex):
            verts.append(vertex)
    if not verts[-1].almost_equal(end_point):
        verts.append(end_point)
    if len(verts) < 2:
        verts.append(Point(end_point.x + 1e-9, end_point.y))
    return Polyline(verts)


def interval_polyline(polyline: Polyline, from_travel: float,
                      to_travel: float, direction: int) -> Polyline:
    if direction == 0:
        return subline(polyline, from_travel, to_travel)
    return subline(polyline, polyline.length - max(from_travel, to_travel),
                   polyline.length - min(from_travel, to_travel))
