"""Future-position queries over o-planes.

The paper notes that ``t0`` in a range query "may be the current time,
or some time in the future" (§4.2), and motivates queries like "where
will the helicopters be in 10 minutes" (§5).  This module adds the two
trajectory primitives those enable:

* :func:`predicted_interval` — the uncertainty interval at a future
  time (the answer to "where will m be at t?"),
* :func:`when_may_reach` / :func:`when_must_reach` — the earliest
  future instant an object may (respectively must) be inside a region,
  found by scanning the o-plane's time axis and bisecting the first
  transition.

All answers are derived purely from DBMS-visible state (position
attribute + policy bounds) — no contact with the moving object.
"""

from __future__ import annotations

import math

from repro.core.uncertainty import UncertaintyInterval
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import Containment, classify_against_polygon
from repro.errors import QueryError
from repro.geometry.polygon import Polygon

#: Time resolution (minutes) to which reach-times are refined.
_REFINE_TOLERANCE = 1.0 / 240.0


def predicted_interval(database: MovingObjectDatabase, object_id: str,
                       t: float) -> UncertaintyInterval:
    """The uncertainty interval of ``object_id`` at (future) time ``t``."""
    record = database.record(object_id)
    route = database.routes.get(record.attribute.route_id)
    if t < record.attribute.starttime:
        raise QueryError(
            f"time {t} precedes the last update of {object_id!r}"
        )
    return record.uncertainty(route, t)


def _classify_at(database: MovingObjectDatabase, object_id: str,
                 polygon: Polygon, t: float) -> str:
    record = database.record(object_id)
    route = database.routes.get(record.attribute.route_id)
    interval = record.uncertainty(route, t)
    return classify_against_polygon(interval, route, polygon)


def _earliest_transition(database: MovingObjectDatabase, object_id: str,
                         polygon: Polygon, until: float,
                         satisfied, step: float) -> float | None:
    """Earliest t in [now, until] where ``satisfied(classification)``.

    Coarse forward scan at ``step`` resolution, then bisection to
    :data:`_REFINE_TOLERANCE`.  Conservative for the monotone-reach
    cases these queries serve; a region entered and left entirely
    between scan points can be missed, so ``step`` trades cost for
    completeness.  ``until`` must be finite and ``step`` finite and
    positive; otherwise the scan never ends, steps backwards or stops
    at a NaN.
    """
    if not math.isfinite(until):
        raise QueryError(f"query horizon must be finite, got {until}")
    if not (step > 0 and math.isfinite(step)):
        raise QueryError(f"scan step must be positive and finite, got {step}")
    record = database.record(object_id)
    start = max(record.attribute.starttime, database.clock_time)
    if until <= start:
        raise QueryError(
            f"query horizon {until} does not extend past {start}"
        )
    previous = start
    if satisfied(_classify_at(database, object_id, polygon, previous)):
        return previous
    t = start
    while t < until:
        t = min(t + step, until)
        if satisfied(_classify_at(database, object_id, polygon, t)):
            # Bisect (previous, t] down to the refine tolerance.
            lo, hi = previous, t
            while hi - lo > _REFINE_TOLERANCE:
                mid = (lo + hi) / 2.0
                if satisfied(_classify_at(database, object_id, polygon, mid)):
                    hi = mid
                else:
                    lo = mid
            return hi
        previous = t
    return None


def when_may_reach(database: MovingObjectDatabase, object_id: str,
                   polygon: Polygon, until: float,
                   step: float = 0.5) -> float | None:
    """Earliest time ``<= until`` the object *may* be inside ``polygon``.

    Returns ``None`` when even the fastest consistent trajectory cannot
    touch the region within the horizon.
    """
    return _earliest_transition(
        database, object_id, polygon, until,
        satisfied=lambda c: c != Containment.OUT,
        step=step,
    )


def when_must_reach(database: MovingObjectDatabase, object_id: str,
                    polygon: Polygon, until: float,
                    step: float = 0.5) -> float | None:
    """Earliest time ``<= until`` the object *must* be inside ``polygon``.

    Returns ``None`` when no future instant pins the whole uncertainty
    interval inside the region within the horizon.  Note this can stay
    ``None`` forever for fast-growing uncertainty — certainty about the
    future is only achievable while the bound is narrower than the
    region.
    """
    return _earliest_transition(
        database, object_id, polygon, until,
        satisfied=lambda c: c == Containment.MUST,
        step=step,
    )

__all__ = [
    "predicted_interval",
    "when_may_reach",
    "when_must_reach",
]
