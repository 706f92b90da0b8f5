"""JSON persistence for the moving-objects database.

Snapshots the full database state — routes, schema, mobile records
(position attributes + policies + speed envelopes), stationary objects,
non-spatial attribute rows, the update log, and the clock — to a single
JSON document, and reconstructs an equivalent database from it.  Routes,
classes and update messages are stored by their types' own
``to_spec``/``from_spec`` codecs, the ones the flight recorder and trace
replay use; a malformed snapshot raises a :mod:`repro.errors` error
naming the field.

The time-space index is *not* serialised: it is derived state, rebuilt
from the persisted o-plane inputs on load when an index is supplied.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from repro.core.position import PositionAttribute
from repro.core.serialize import policy_from_spec, policy_to_spec
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import ObjectClass
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError, SpecReader, read_json_object
from repro.geometry.point import Point
from repro.routes.route import Route

#: Snapshot format version, checked on load.
FORMAT_VERSION = 1


def database_to_dict(database: MovingObjectDatabase) -> dict[str, Any]:
    """The whole database as a JSON-compatible dict."""
    records = [
        {"object_id": object_id, "class_name": record.class_name,
         "max_speed": record.max_speed,
         "policy": policy_to_spec(record.policy),
         "attribute": asdict(record.attribute),
         "row": database.table(record.class_name).get(object_id)}
        for object_id, record in database._records.items()
    ]
    stationary = [
        {"object_id": object_id, "class_name": class_name,
         "x": point.x, "y": point.y,
         "row": database.table(class_name).get(object_id)}
        for object_id, (class_name, point) in database._stationary.items()
    ]
    schema = database.schema
    return {
        "format_version": FORMAT_VERSION,
        "horizon": database.horizon,
        "clock_time": database.clock_time,
        "routes": [route.to_spec() for route in database.routes],
        "classes": [schema.get(name).to_spec()
                    for name in schema.class_names()],
        "records": records,
        "stationary": stationary,
        "update_log": [m.to_spec() for m in database.update_log.messages()],
    }


def _mobile_record(spec: Any) -> tuple:
    """A snapshot's mobile record, decoded: ``(object_id, class_name,
    attribute, policy, max_speed, row)``."""
    fields = SpecReader(spec, QueryError, "snapshot record")
    block = SpecReader(fields.get("attribute", dict), QueryError,
                       "snapshot record attribute")
    attribute = PositionAttribute(
        starttime=block.number("starttime"),
        route_id=block.get("route_id", str),
        start_x=block.number("start_x"), start_y=block.number("start_y"),
        direction=block.get("direction", int), speed=block.number("speed"),
        policy=block.get("policy", str),
    )
    return (fields.get("object_id", str), fields.get("class_name", str),
            attribute, policy_from_spec(fields.get("policy", dict)),
            fields.number("max_speed"), fields.get("row", dict, None))


def database_from_dict(data: Any, index: Any = None,
                       partitioning: Any = None) -> MovingObjectDatabase:
    """Reconstruct a database from :func:`database_to_dict` output.

    Supplying ``index`` (e.g. a fresh
    :class:`~repro.index.timespace.TimeSpaceIndex`) re-derives every
    object's o-plane on insert; a ``partitioning`` as well makes the
    loaded database sharded, each object owned by its start point's
    shard.
    """
    fields = SpecReader(data, QueryError, "snapshot")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise QueryError(
            f"unsupported snapshot format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    database = MovingObjectDatabase(index=index,
                                    horizon=fields.number("horizon"),
                                    partitioning=partitioning)
    for spec in fields.get("routes", list):
        database.register_route(Route.from_spec(spec))
    for spec in fields.get("classes", list):
        database.schema.define(ObjectClass.from_spec(spec))
    # Insert in starttime order: the write path enforces a monotone
    # database clock.
    mobile = sorted(map(_mobile_record, fields.get("records", list)),
                    key=lambda decoded: decoded[2].starttime)
    for object_id, class_name, attribute, policy, max_speed, row in mobile:
        # Insert at the attribute's own starttime, then restore the
        # exact attribute (the insert path validates route membership).
        database.insert_moving_object(
            object_id, class_name, attribute.route_id, attribute.starttime,
            attribute.start_point, attribute.direction, attribute.speed,
            policy, max_speed=max_speed, attributes=row or None,
        )
        database.record(object_id).attribute = attribute
    for spec in fields.get("stationary", list):
        point = SpecReader(spec, QueryError, "snapshot stationary object")
        database.insert_stationary_object(
            point.get("object_id", str), point.get("class_name", str),
            Point(point.number("x"), point.number("y")),
            point.get("row", dict, None) or None,
        )
    for spec in fields.get("update_log", list):
        database.update_log.record(PositionUpdateMessage.from_spec(spec))
    database.clock_time = fields.number("clock_time")
    return database


def save_database(database: MovingObjectDatabase, path: str) -> None:
    """Write a JSON snapshot of ``database`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(database_to_dict(database), handle, indent=1)


def load_database(path: str, index: Any = None) -> MovingObjectDatabase:
    """Load a database snapshot written by :func:`save_database`; an
    unreadable file is a :class:`QueryError`, like a malformed record."""
    return database_from_dict(read_json_object(path, QueryError, "snapshot"),
                              index=index)

__all__ = [
    "FORMAT_VERSION",
    "database_from_dict",
    "database_to_dict",
    "load_database",
    "save_database",
]
