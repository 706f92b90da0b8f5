"""Query answers and the may/must refinement logic (paper §3.3, §4).

Two query families from the paper:

* **Position queries** — "what is the current position of m?"  The
  answer is the database position *plus a bound on the error*: the
  DBMS "will also be able to provide a bound on the error, i.e. the
  difference between the actual position of the object and its
  database position" (§2).  :class:`PositionAnswer` carries the
  dead-reckoned point, the slow/fast/total bounds, and the uncertainty
  interval.

* **Range queries** — "retrieve the objects whose current position is
  in the polygon G".  "The answer to the query Q consists of the set S
  of objects that may be in G, together with a subset of S consisting
  of the objects that must be in G" (§4.1.2).  :class:`RangeAnswer`
  carries both sets; :func:`classify_against_polygon` implements the
  uncertainty-interval refinement of Theorems 5 and 6.

The within-distance variant ("the cabs currently within 1 mile of
33 N. Michigan Ave.") gets the same treatment against a disc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.uncertainty import UncertaintyInterval
from repro.errors import QueryError
from repro.geometry import kernels
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.routes.route import Route


@dataclass(frozen=True, slots=True)
class PositionAnswer:
    """Answer to "what is the current position of m?" at time ``t``."""

    object_id: str
    time: float
    #: The dead-reckoned database position the DBMS returns.
    position: Point
    #: Bound on the slow deviation (object behind the returned point).
    slow_bound: float
    #: Bound on the fast deviation (object ahead of the returned point).
    fast_bound: float
    #: Bound on the deviation in either direction (Corollary 1 / Prop. 4).
    error_bound: float
    #: The uncertainty interval the true position must lie in.
    interval: UncertaintyInterval


class Containment:
    """Three-valued outcome of testing an object against a region."""

    MUST = "must"
    MAY = "may"
    OUT = "out"


@dataclass(frozen=True, slots=True)
class RangeAnswer:
    """Answer to a range query: may-set and its must-subset (§4.1.2)."""

    time: float
    #: Ids of objects that *may* be in the region (superset).
    may: frozenset[str]
    #: Ids of objects that *must* be in the region (subset of ``may``).
    must: frozenset[str]
    #: How many objects the query engine actually examined (equals the
    #: population for a linear scan; typically far fewer with an index).
    examined: int = 0
    #: Candidates reported by the index before refinement (diagnostics).
    candidates: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.must <= self.may:
            raise QueryError("must-set is not a subset of the may-set")

    @property
    def uncertain(self) -> frozenset[str]:
        """Objects that may, but need not, be in the region."""
        return self.may - self.must


def classify_polyline_against_polygon(geometry: Polyline,
                                      polygon: Polygon) -> str:
    """Theorems 5–6 refinement for an interval's materialised geometry.

    Split out from :func:`classify_against_polygon` so callers that
    cache the geometry (the batch query engine) refine through the
    exact same predicate as the one-at-a-time path.
    """
    if not polygon.intersects_polyline(geometry):
        return Containment.OUT
    if polygon.contains_polyline(geometry):
        return Containment.MUST
    return Containment.MAY


def classify_against_polygon(interval: UncertaintyInterval, route: Route,
                             polygon: Polygon) -> str:
    """Theorems 5–6 refinement for one object.

    * ``MUST`` — the uncertainty interval lies in G in its entirety,
    * ``MAY`` — the interval intersects G but is not contained,
    * ``OUT`` — the interval misses G.
    """
    return classify_polyline_against_polygon(interval.geometry(route), polygon)


def distance_range_to_polyline(center: Point,
                               geometry: Polyline) -> tuple[float, float]:
    """Min and max Euclidean distance from ``center`` to a polyline.

    The minimum is attained on a segment interior or endpoint; the
    maximum of a convex function over a polyline is attained at a
    vertex, so checking vertices suffices.
    """
    return kernels.chain_distance_range(
        center.x, center.y, geometry.xs, geometry.ys
    )


def distance_range_to_interval(center: Point, interval: UncertaintyInterval,
                               route: Route) -> tuple[float, float]:
    """Min and max Euclidean distance from ``center`` to the interval."""
    return distance_range_to_polyline(center, interval.geometry(route))


def distance_range_between_polylines(geometry_a: Polyline,
                                      geometry_b: Polyline) -> tuple[float, float]:
    """Min and max Euclidean distance between two polylines.

    The minimum is attained between segments, the maximum between
    vertices (distance is convex along each polyline).
    """
    minimum = min(
        sa.distance_to_segment(sb)
        for sa in geometry_a.segments()
        for sb in geometry_b.segments()
    )
    maximum = max(
        va.distance_to(vb)
        for va in geometry_a.vertices
        for vb in geometry_b.vertices
    )
    return minimum, maximum


def distance_range_between_intervals(
        interval_a: UncertaintyInterval, route_a: Route,
        interval_b: UncertaintyInterval, route_b: Route) -> tuple[float, float]:
    """Min and max Euclidean distance between two uncertainty intervals.

    The proximity semantics for *moving-to-moving* queries ("the trucks
    within 1 mile of truck ABT312"): both objects are uncertain, so the
    true distance lies between the closest and farthest point pairs of
    the two route strips.
    """
    return distance_range_between_polylines(
        interval_a.geometry(route_a), interval_b.geometry(route_b)
    )


@dataclass(frozen=True, slots=True)
class NearestAnswer:
    """One entry of a nearest-neighbour answer, with distance bounds.

    ``min_distance``/``max_distance`` bound the object's true distance
    from the query point given its uncertainty interval; entries are
    ordered by ``min_distance`` (optimistic ordering).  ``certain`` is
    True when this object is *guaranteed* closer than every object
    ranked below it (its max is below all their mins).
    """

    object_id: str
    min_distance: float
    max_distance: float
    certain: bool = False


def classify_polyline_within_distance(center: Point, radius: float,
                                      geometry: Polyline) -> str:
    """Disc classification for an interval's materialised geometry."""
    if radius < 0:
        raise QueryError(f"radius must be nonnegative, got {radius}")
    may, must = kernels.chain_within_distance(
        center.x, center.y, radius, geometry.xs, geometry.ys
    )
    if not may:
        return Containment.OUT
    return Containment.MUST if must else Containment.MAY


def classify_within_distance(center: Point, radius: float,
                             interval: UncertaintyInterval,
                             route: Route) -> str:
    """May/must classification against a disc of ``radius`` at ``center``."""
    return classify_polyline_within_distance(
        center, radius, interval.geometry(route)
    )

__all__ = [
    "Containment",
    "NearestAnswer",
    "PositionAnswer",
    "RangeAnswer",
    "classify_against_polygon",
    "classify_polyline_against_polygon",
    "classify_polyline_within_distance",
    "classify_within_distance",
    "distance_range_between_intervals",
    "distance_range_between_polylines",
    "distance_range_to_interval",
    "distance_range_to_polyline",
]
