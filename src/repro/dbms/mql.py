"""MQL — a small declarative query language for the moving-objects DBMS.

The paper's future work includes "developing query languages and user
interfaces for these databases".  MQL covers the paper's query shapes
in a compact SQL-ish surface syntax:

.. code-block:: text

    RETRIEVE taxi WHERE free = true WITHIN 1.0 OF (3.0, 4.0)
    RETRIEVE unit WHERE allegiance = 'friendly'
        IN POLYGON ((0,0), (5,0), (5,5), (0,5)) AT 12.5
    RETRIEVE IN POLYGON ((0,0), (4,0), (4,4), (0,4))
    POSITION OF taxi-7
    POSITION OF taxi-7 AT 30.0
    WHEN MAY courier-1 REACH POLYGON ((10,0), (12,0), (12,2), (10,2))
        UNTIL 40.0
    WHEN MUST courier-1 REACH POLYGON (...) UNTIL 40.0
    RETRIEVE 3 NEAREST taxi TO (3.0, 4.0)
    RETRIEVE truck WITHIN 1.0 OF OBJECT truck-ABT312

Semantics map 1:1 onto the public API: RETRIEVE executes
:meth:`~repro.dbms.database.MovingObjectDatabase.range_query` /
``within_distance`` (answers carry may/must sets), POSITION executes
``position_of`` (answer carries the error bound), and WHEN executes the
trajectory queries.  ``AT``/``UNTIL`` default to the database clock
(and clock + 60 minutes, respectively).

The implementation is a hand-written tokenizer and recursive-descent
parser producing typed statement objects, plus an executor.  Keywords
are case-insensitive; identifiers (class names, object ids) are bare
words that may contain dashes; strings use single quotes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Union

from repro.dbms.database import MovingObjectDatabase
from repro.dbms.query import NearestAnswer, PositionAnswer, RangeAnswer
from repro.dbms.refine import (
    PositionQuery,
    ProximityQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.trajectory import when_may_reach, when_must_reach
from repro.errors import GeometryError, QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<string>'[^']*')"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_\-]*)"
    r"|(?P<punct>[(),=])"
    r")"
)

_KEYWORDS = {
    "RETRIEVE", "WHERE", "AND", "IN", "POLYGON", "WITHIN", "OF", "AT",
    "POSITION", "WHEN", "MAY", "MUST", "REACH", "UNTIL", "TRUE", "FALSE",
    "NEAREST", "TO", "OBJECT",
}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str          # "number" | "string" | "word" | "punct" | "end"
    text: str
    position: int


def _tokenize(query: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(query):
        match = _TOKEN_RE.match(query, index)
        if match is None or match.end() == index:
            remainder = query[index:].strip()
            if not remainder:
                break
            raise QueryError(
                f"MQL: cannot tokenize {remainder[:20]!r} at offset {index}"
            )
        for kind in ("number", "string", "word", "punct"):
            text = match.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, match.start(kind)))
                break
        index = match.end()
    tokens.append(_Token("end", "", len(query)))
    return tokens


# ---------------------------------------------------------------------------
# Statements (the AST)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RetrieveStatement:
    """``RETRIEVE [class] [WHERE ...] <region> [AT t]`` where the region
    is ``IN POLYGON ...``, ``WITHIN r OF (x, y)``, or ``WITHIN r OF
    OBJECT <id>`` (moving-to-moving proximity)."""

    class_name: str | None
    where: dict[str, Any] = field(default_factory=dict)
    polygon: Polygon | None = None
    center: Point | None = None
    radius: float | None = None
    anchor_id: str | None = None
    at_time: float | None = None


@dataclass(frozen=True, slots=True)
class NearestStatement:
    """``RETRIEVE k NEAREST [class] [WHERE ...] TO (x, y) [AT t]``"""

    k: int
    class_name: str | None
    where: dict[str, Any] = field(default_factory=dict)
    center: Point | None = None
    at_time: float | None = None


@dataclass(frozen=True, slots=True)
class PositionStatement:
    """``POSITION OF <object-id> [AT t]``"""

    object_id: str
    at_time: float | None = None


@dataclass(frozen=True, slots=True)
class WhenStatement:
    """``WHEN (MAY|MUST) <object-id> REACH POLYGON (...) [UNTIL t]``"""

    object_id: str
    must: bool
    polygon: Polygon
    until: float | None = None


Statement = Union[RetrieveStatement, NearestStatement, PositionStatement,
                  WhenStatement]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, query: str) -> None:
        self._tokens = _tokenize(query)
        self._index = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _is_keyword(self, token: _Token, keyword: str) -> bool:
        return token.kind == "word" and token.text.upper() == keyword

    def _peek_keyword(self, keyword: str) -> bool:
        return self._is_keyword(self._peek(), keyword)

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if not self._is_keyword(token, keyword):
            raise QueryError(
                f"MQL: expected {keyword}, got {token.text!r} "
                f"at offset {token.position}"
            )

    def _expect_punct(self, punct: str) -> None:
        token = self._advance()
        if token.kind != "punct" or token.text != punct:
            raise QueryError(
                f"MQL: expected {punct!r}, got {token.text!r} "
                f"at offset {token.position}"
            )

    def _expect_number(self) -> float:
        token = self._advance()
        if token.kind != "number":
            raise QueryError(
                f"MQL: expected a number, got {token.text!r} "
                f"at offset {token.position}"
            )
        return float(token.text)

    def _expect_identifier(self) -> str:
        token = self._advance()
        if token.kind != "word" or token.text.upper() in _KEYWORDS:
            raise QueryError(
                f"MQL: expected an identifier, got {token.text!r} "
                f"at offset {token.position}"
            )
        return token.text

    def _expect_end(self) -> None:
        token = self._peek()
        if token.kind != "end":
            raise QueryError(
                f"MQL: unexpected trailing input {token.text!r} "
                f"at offset {token.position}"
            )

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Statement:
        token = self._peek()
        if self._is_keyword(token, "RETRIEVE"):
            return self._parse_retrieve()
        if self._is_keyword(token, "POSITION"):
            return self._parse_position()
        if self._is_keyword(token, "WHEN"):
            return self._parse_when()
        raise QueryError(
            f"MQL: statements start with RETRIEVE, POSITION or WHEN; "
            f"got {token.text!r}"
        )

    def _parse_retrieve(self) -> RetrieveStatement | NearestStatement:
        self._expect_keyword("RETRIEVE")
        if self._peek().kind == "number":
            return self._parse_nearest()
        class_name: str | None = None
        token = self._peek()
        if token.kind == "word" and token.text.upper() not in _KEYWORDS:
            class_name = self._expect_identifier()
        where = self._parse_where() if self._peek_keyword("WHERE") else {}
        polygon = center = radius = anchor_id = None
        if self._peek_keyword("IN"):
            self._expect_keyword("IN")
            polygon = self._parse_polygon()
        elif self._peek_keyword("WITHIN"):
            self._expect_keyword("WITHIN")
            radius = self._expect_number()
            self._expect_keyword("OF")
            if self._peek_keyword("OBJECT"):
                self._expect_keyword("OBJECT")
                anchor_id = self._expect_identifier()
            else:
                center = self._parse_point()
        else:
            raise QueryError(
                "MQL: RETRIEVE needs a region (IN POLYGON ..., "
                "WITHIN r OF (x, y), or WITHIN r OF OBJECT id)"
            )
        at_time = self._parse_optional_time("AT")
        self._expect_end()
        return RetrieveStatement(
            class_name=class_name, where=where, polygon=polygon,
            center=center, radius=radius, anchor_id=anchor_id,
            at_time=at_time,
        )

    def _parse_nearest(self) -> NearestStatement:
        k_value = self._expect_number()
        if k_value < 1 or k_value != int(k_value):
            raise QueryError(
                f"MQL: NEAREST needs a positive integer k, got {k_value}"
            )
        self._expect_keyword("NEAREST")
        class_name: str | None = None
        token = self._peek()
        if token.kind == "word" and token.text.upper() not in _KEYWORDS:
            class_name = self._expect_identifier()
        where = self._parse_where() if self._peek_keyword("WHERE") else {}
        self._expect_keyword("TO")
        center = self._parse_point()
        at_time = self._parse_optional_time("AT")
        self._expect_end()
        return NearestStatement(
            k=int(k_value), class_name=class_name, where=where,
            center=center, at_time=at_time,
        )

    def _parse_position(self) -> PositionStatement:
        self._expect_keyword("POSITION")
        self._expect_keyword("OF")
        object_id = self._expect_identifier()
        at_time = self._parse_optional_time("AT")
        self._expect_end()
        return PositionStatement(object_id=object_id, at_time=at_time)

    def _parse_when(self) -> WhenStatement:
        self._expect_keyword("WHEN")
        token = self._advance()
        if self._is_keyword(token, "MAY"):
            must = False
        elif self._is_keyword(token, "MUST"):
            must = True
        else:
            raise QueryError(
                f"MQL: WHEN needs MAY or MUST, got {token.text!r}"
            )
        object_id = self._expect_identifier()
        self._expect_keyword("REACH")
        polygon = self._parse_polygon()
        until = self._parse_optional_time("UNTIL")
        self._expect_end()
        return WhenStatement(
            object_id=object_id, must=must, polygon=polygon, until=until,
        )

    def _parse_where(self) -> dict[str, Any]:
        self._expect_keyword("WHERE")
        conditions: dict[str, Any] = {}
        while True:
            name = self._expect_identifier()
            self._expect_punct("=")
            conditions[name] = self._parse_literal()
            if self._peek_keyword("AND"):
                self._expect_keyword("AND")
                continue
            return conditions

    def _parse_literal(self) -> Any:
        token = self._advance()
        if token.kind == "number":
            value = float(token.text)
            return int(value) if value.is_integer() and "." not in token.text else value
        if token.kind == "string":
            return token.text[1:-1]
        if self._is_keyword(token, "TRUE"):
            return True
        if self._is_keyword(token, "FALSE"):
            return False
        raise QueryError(
            f"MQL: expected a literal, got {token.text!r} "
            f"at offset {token.position}"
        )

    def _parse_point(self) -> Point:
        self._expect_punct("(")
        x = self._expect_number()
        self._expect_punct(",")
        y = self._expect_number()
        self._expect_punct(")")
        return Point(x, y)

    def _parse_polygon(self) -> Polygon:
        self._expect_keyword("POLYGON")
        self._expect_punct("(")
        points = [self._parse_point()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._expect_punct(",")
            points.append(self._parse_point())
        self._expect_punct(")")
        try:
            return Polygon(points)
        except GeometryError as exc:
            raise QueryError(f"MQL: invalid polygon: {exc}") from exc

    def _parse_optional_time(self, keyword: str) -> float | None:
        if self._peek_keyword(keyword):
            self._expect_keyword(keyword)
            return self._expect_number()
        return None


def parse(query: str) -> Statement:
    """Parse one MQL statement into its typed form."""
    return _Parser(query).parse()


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

#: Default look-ahead for WHEN queries without UNTIL (minutes).
DEFAULT_WHEN_HORIZON = 60.0


def execute(database: MovingObjectDatabase,
            query: str) -> (RangeAnswer | PositionAnswer
                            | list[NearestAnswer] | float | None):
    """Parse and run one MQL statement against ``database``.

    Returns a :class:`RangeAnswer` for RETRIEVE, a list of
    :class:`NearestAnswer` for RETRIEVE k NEAREST, a
    :class:`PositionAnswer` for POSITION, and a time (or ``None``) for
    WHEN.
    """
    statement = parse(query)
    if isinstance(statement, WhenStatement):
        until = (statement.until if statement.until is not None
                 else database.clock_time + DEFAULT_WHEN_HORIZON)
        reach = when_must_reach if statement.must else when_may_reach
        return reach(database, statement.object_id, statement.polygon, until)
    t = (statement.at_time if statement.at_time is not None
         else database.clock_time)
    if isinstance(statement, PositionStatement):
        return database.ask(PositionQuery(statement.object_id, t))
    filters = (statement.where or None, statement.class_name)
    if isinstance(statement, NearestStatement):
        return database.nearest(statement.center, statement.k, t, *filters)
    if statement.polygon is not None:
        return database.ask(RangeQuery(statement.polygon, t, *filters))
    if statement.anchor_id is not None:
        return database.ask(ProximityQuery(
            statement.anchor_id, statement.radius, t, *filters))
    return database.ask(WithinDistanceQuery(
        statement.center, statement.radius, t, *filters))

__all__ = [
    "DEFAULT_WHEN_HORIZON",
    "NearestStatement",
    "PositionStatement",
    "RetrieveStatement",
    "Statement",
    "WhenStatement",
    "execute",
    "parse",
]
