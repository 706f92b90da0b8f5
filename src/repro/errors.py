"""Exception hierarchy for the repro moving-objects database.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure categories below.
:func:`read_json_object` and :class:`SpecReader` are where outside
input (a snapshot, a shard plan, a trace event, a policy spec ...) becomes
one of them.
"""

from __future__ import annotations

import json
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """A geometric construction or query is invalid.

    Examples: a polyline with fewer than two vertices, a polygon with
    fewer than three vertices, or a route-distance query for a point that
    does not lie on the route.
    """


class RouteError(GeometryError):
    """A route-specific failure (bad route id, off-route position, ...)."""


class PolicyError(ReproError):
    """An update policy was configured or driven inconsistently.

    Examples: a negative update cost, an estimator evaluated before any
    update has been recorded, or an unknown policy name.
    """


class SchemaError(ReproError):
    """A DBMS schema violation (unknown class, missing attribute, ...)."""


class QueryError(ReproError):
    """A malformed or unanswerable query."""


class IndexError_(ReproError):
    """A spatial-index invariant was violated.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``SpatialIndexError`` from the
    package root.
    """


SpatialIndexError = IndexError_


class ShardError(ReproError):
    """A sharding partitioning or shard-plan file is invalid."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ExperimentError(ReproError):
    """An experiment harness failure (bad sweep spec, missing series, ...)."""


class ObservabilityError(ReproError):
    """A metrics/tracing misuse (kind conflict, bad buckets, bad name)."""


class TraceError(ReproError):
    """A flight-recorder failure (bad event, unreadable trace, replay
    against a trace whose schema this build does not understand)."""


def read_json_object(path: str, error: type[ReproError], what: str) -> dict:
    """The JSON object in the file at ``path``.

    A missing or unreadable file, bad JSON or a document that is not an
    object raises ``error`` naming ``what`` (a snapshot, a shard plan ...).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc
    except ValueError as exc:
        raise error(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise error(f"{what} {path!r} is not a JSON object")
    return document


_REQUIRED = object()


def _is_pair(value: Any) -> bool:
    if not isinstance(value, list) or len(value) != 2:
        return False
    x, y = value
    return (isinstance(x, (int, float)) and isinstance(y, (int, float))
            and bool not in (type(x), type(y)))


class SpecReader:
    """Checked reads of one decoded JSON record (a *spec*).

    Every ``from_spec`` decoder reads its record through one, so a record
    that is not an object, a missing field or a wrong-typed value raises
    ``error`` — the record type's domain error — naming the record and
    the field, never a ``KeyError`` or ``TypeError``.  A field read with
    a ``default`` is optional: absent or null gives the default.
    """

    __slots__ = ("spec", "fail")

    def __init__(self, spec: Any, error: type[ReproError], what: str) -> None:
        #: The record's domain error for ``message``.
        self.fail = lambda message: error(f"{what}: {message}")
        if not isinstance(spec, dict):
            raise self.fail(f"expected an object, got {type(spec).__name__}")
        self.spec = spec

    def get(self, key: str, types: type | tuple[type, ...],
            default: Any = _REQUIRED) -> Any:
        value = self.spec.get(key)
        if value is None and default is not _REQUIRED:
            return default
        if value is None:
            raise self.fail(f"missing field {key!r}")
        if not isinstance(value, types) or (isinstance(value, bool)
                                            and types is not bool):
            raise self.fail(f"field {key!r} has the wrong type "
                            f"({type(value).__name__})")
        return value

    def number(self, key: str, default: Any = _REQUIRED) -> Any:
        return self.get(key, (int, float), default)

    def pair(self, key: str) -> list:
        value = self.get(key, list)
        if not _is_pair(value):
            raise self.fail(f"field {key!r} is not an [x, y] number pair")
        return value

    def pairs(self, key: str) -> list:
        value = self.get(key, list)
        if not all(map(_is_pair, value)):
            raise self.fail(f"field {key!r} is not a list of [x, y] pairs")
        return value


__all__ = [
    "ExperimentError",
    "GeometryError",
    "IndexError_",
    "ObservabilityError",
    "PolicyError",
    "QueryError",
    "ReproError",
    "RouteError",
    "SchemaError",
    "ShardError",
    "SimulationError",
    "SpatialIndexError",
    "SpecReader",
    "TraceError",
    "read_json_object",
]
