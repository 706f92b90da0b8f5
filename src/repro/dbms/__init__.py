"""The moving-objects DBMS (paper §2 and §4).

A small but real database engine for objects whose position is modeled
temporally:

* :mod:`repro.dbms.schema` — object classes and attribute definitions
  (spatial point/line/polygon classes, mobile vs. stationary),
* :mod:`repro.dbms.storage` — in-memory row storage with snapshots,
* :mod:`repro.dbms.moving_object` — the server-side record of a mobile
  object (position attribute + policy + speed envelope),
* :mod:`repro.dbms.update_log` — position-update messages and
  bandwidth accounting,
* :mod:`repro.dbms.query` — point queries with error bounds, range
  queries with may/must semantics, within-distance queries,
* :mod:`repro.dbms.database` — the :class:`MovingObjectDatabase`
  facade tying everything together (and optionally a time-space index),
* :mod:`repro.dbms.refine` — the query core: the one refinement
  procedure and the database-owned derived-value cache behind every
  query (a single query is a batch of one),
* :mod:`repro.dbms.batch` — the :class:`BatchQueryEngine` putting whole
  query workloads to the core at once (multi-search, hoisted filters).
"""

from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    ProximityQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.moving_object import MovingObjectRecord
from repro.dbms.query import PositionAnswer, RangeAnswer
from repro.dbms.schema import Mobility, ObjectClass, Schema, SpatialKind
from repro.dbms.storage import Table
from repro.dbms.update_log import PositionUpdateMessage, UpdateLog

__all__ = [
    "MovingObjectDatabase",
    "BatchQueryEngine",
    "PositionQuery",
    "ProximityQuery",
    "RangeQuery",
    "WithinDistanceQuery",
    "MovingObjectRecord",
    "PositionAnswer",
    "RangeAnswer",
    "Schema",
    "ObjectClass",
    "SpatialKind",
    "Mobility",
    "Table",
    "PositionUpdateMessage",
    "UpdateLog",
]
