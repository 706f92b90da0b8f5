"""Object classes and schema (paper §2).

"A database is a set of object-classes.  An object-class is a set of
attributes.  Some object-classes are designated as spatial.  Each
spatial object class is either a point-class, a line-class, or a
polygon-class.  Point object classes are either mobile or stationary."

This module models that type system.  Mobile point classes implicitly
carry the seven-sub-attribute position attribute
(:class:`repro.core.position.PositionAttribute`); stationary point
classes carry a plain ``(x, y)``; the schema also lets applications
declare ordinary non-spatial attributes with lightweight type checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchemaError, SpecReader
from repro.obs.probe import probe
from repro.trace.events import CLASS_DEFINE


class SpatialKind(enum.Enum):
    """Spatial designation of an object class."""

    NONE = "none"
    POINT = "point"
    LINE = "line"
    POLYGON = "polygon"


class Mobility(enum.Enum):
    """Whether a point class's objects move."""

    STATIONARY = "stationary"
    MOBILE = "mobile"


#: Python types accepted for each declared attribute type name.
_ATTRIBUTE_TYPES: dict[str, tuple[type, ...]] = {
    "string": (str,),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
}


@dataclass(frozen=True, slots=True)
class AttributeDef:
    """A declared non-spatial attribute of an object class."""

    name: str
    type_name: str
    required: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.type_name not in _ATTRIBUTE_TYPES:
            raise SchemaError(
                f"unknown attribute type {self.type_name!r}; "
                f"known: {sorted(_ATTRIBUTE_TYPES)}"
            )

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` when ``value`` has the wrong type."""
        expected = _ATTRIBUTE_TYPES[self.type_name]
        # bool is an int subclass; don't let True pass as an int/float.
        if self.type_name in ("int", "float") and isinstance(value, bool):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.type_name}, got bool"
            )
        if not isinstance(value, expected):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.type_name}, "
                f"got {type(value).__name__}"
            )


@dataclass(frozen=True, slots=True)
class ObjectClass:
    """An object class: a named set of attributes plus spatial designation."""

    name: str
    spatial_kind: SpatialKind = SpatialKind.NONE
    mobility: Mobility = Mobility.STATIONARY
    attributes: tuple[AttributeDef, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("object class name must be non-empty")
        if (
            self.mobility is Mobility.MOBILE
            and self.spatial_kind is not SpatialKind.POINT
        ):
            raise SchemaError(
                "only point classes can be mobile "
                f"(class {self.name!r} is {self.spatial_kind.value})"
            )
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(
                f"duplicate attribute names in class {self.name!r}"
            )

    @property
    def is_mobile_point(self) -> bool:
        return (
            self.spatial_kind is SpatialKind.POINT
            and self.mobility is Mobility.MOBILE
        )

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"class {self.name!r} has no attribute {name!r}")

    def to_spec(self) -> dict[str, Any]:
        """The class as a trace event and a snapshot both store it."""
        return {
            "name": self.name,
            "spatial_kind": self.spatial_kind.value,
            "mobility": self.mobility.value,
            "attributes": [
                {"name": a.name, "type": a.type_name, "required": a.required}
                for a in self.attributes
            ],
        }

    @classmethod
    def from_spec(cls, spec: Any) -> "ObjectClass":
        """Inverse of :meth:`to_spec`; bad input is a :class:`SchemaError`."""
        fields = SpecReader(spec, SchemaError, "object class")
        attributes = []
        for entry in fields.get("attributes", list, []):
            attr = SpecReader(entry, SchemaError, "class attribute")
            attributes.append(AttributeDef(
                attr.get("name", str), attr.get("type", str),
                attr.get("required", bool, False)))
        try:
            spatial_kind = SpatialKind(fields.get("spatial_kind", str))
            mobility = Mobility(fields.get("mobility", str))
        except ValueError as exc:
            raise fields.fail(str(exc)) from None
        return cls(fields.get("name", str), spatial_kind, mobility,
                   tuple(attributes))

    def validate_row(self, values: dict[str, Any]) -> None:
        """Check a row of non-spatial attribute values against the class."""
        declared = {a.name: a for a in self.attributes}
        for key, value in values.items():
            if key not in declared:
                raise SchemaError(
                    f"class {self.name!r} has no attribute {key!r}"
                )
            declared[key].validate(value)
        for attr in self.attributes:
            if attr.required and attr.name not in values:
                raise SchemaError(
                    f"class {self.name!r} requires attribute {attr.name!r}"
                )


class Schema:
    """The catalogue of object classes in a database."""

    def __init__(self) -> None:
        self._classes: dict[str, ObjectClass] = {}

    def define(self, object_class: ObjectClass) -> ObjectClass:
        """Register a class; duplicate names are an error."""
        if object_class.name in self._classes:
            raise SchemaError(f"duplicate object class {object_class.name!r}")
        self._classes[object_class.name] = object_class
        p = probe()
        if p.enabled:
            p.event(CLASS_DEFINE, **object_class.to_spec())
        return object_class

    def define_mobile_point_class(self, name: str,
                                  attributes: tuple[AttributeDef, ...] = ()) -> ObjectClass:
        """Convenience: define a mobile point class (taxis, trucks, ...)."""
        return self.define(
            ObjectClass(
                name=name,
                spatial_kind=SpatialKind.POINT,
                mobility=Mobility.MOBILE,
                attributes=attributes,
            )
        )

    def get(self, name: str) -> ObjectClass:
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown object class {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def class_names(self) -> list[str]:
        return sorted(self._classes)

__all__ = [
    "AttributeDef",
    "Mobility",
    "ObjectClass",
    "Schema",
    "SpatialKind",
]
