"""Position-update messages and bandwidth accounting.

A *position update* "consists of values for at least the sub-attributes
P.starttime, P.speed, P.x.startposition and P.y.startposition" (§3.1);
it may also carry a new route, direction, or policy.  The
:class:`UpdateLog` records every message the database receives so
experiments can account for message counts and (dollar/bandwidth) cost
per object and in total — the quantities the paper's figures plot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError, SpecReader
from repro.obs.probe import probe
from repro.trace.events import UPDATE


@dataclass(frozen=True, slots=True)
class PositionUpdateMessage:
    """One update message from a moving object to the database."""

    object_id: str
    #: Transmission time; with instantaneous updates this becomes the
    #: new ``P.starttime``.
    time: float
    x: float
    y: float
    speed: float
    #: Optional route change (``None`` keeps the current route).
    route_id: str | None = None
    #: Optional direction change.
    direction: int | None = None
    #: Optional policy change (policies are position sub-attributes and
    #: may be switched by an update, §3.1).  Either a policy name (the
    #: new policy keeps the current update cost) or a full spec dict as
    #: produced by :func:`repro.core.serialize.policy_to_spec`.
    policy: str | dict | None = None

    def __post_init__(self) -> None:
        if not self.object_id:
            raise QueryError("update message needs an object id")
        if self.speed < 0:
            raise QueryError(
                f"update message speed must be nonnegative, got {self.speed}"
            )

    def to_spec(self) -> dict[str, Any]:
        """The message as a snapshot's ``update_log`` stores it (a trace
        keeps ``time`` and ``object_id`` at event level)."""
        return {"object_id": self.object_id, "time": self.time,
                "x": self.x, "y": self.y, "speed": self.speed,
                "route_id": self.route_id, "direction": self.direction,
                "policy": self.policy}

    @classmethod
    def from_spec(cls, spec: Any) -> "PositionUpdateMessage":
        """Inverse of :meth:`to_spec`; bad input is a :class:`QueryError`."""
        fields = SpecReader(spec, QueryError, "update message")
        direction = fields.get("direction", int, None)
        if direction not in (None, 0, 1):
            raise fields.fail(f"direction must be 0 or 1, got {direction}")
        policy = fields.get("policy", (str, dict), None)
        if policy is not None:
            # Checked here; the database installs it on process_update.
            from repro.core.policies import policy_names
            from repro.core.serialize import policy_from_spec

            if isinstance(policy, dict):
                policy_from_spec(policy)
            elif policy not in policy_names():
                raise fields.fail(f"unknown policy {policy!r}")
        return cls(fields.get("object_id", str), fields.number("time"),
                   fields.number("x"), fields.number("y"),
                   fields.number("speed"),
                   route_id=fields.get("route_id", str, None),
                   direction=direction, policy=policy)


class UpdateLog:
    """Append-only log of received update messages, with statistics."""

    def __init__(self) -> None:
        self._messages: list[PositionUpdateMessage] = []
        self._per_object: dict[str, int] = defaultdict(int)

    def record(self, message: PositionUpdateMessage) -> None:
        """Append a message (the database calls this on every update)."""
        if self._messages and message.time < self._messages[-1].time - 1e-9:
            raise QueryError(
                f"update at time {message.time} arrived after time "
                f"{self._messages[-1].time} (log must be time-ordered)"
            )
        self._messages.append(message)
        self._per_object[message.object_id] += 1
        p = probe()
        if p.enabled:
            p.event(UPDATE, **message.to_spec())

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def total_messages(self) -> int:
        return len(self._messages)

    def messages(self) -> list[PositionUpdateMessage]:
        """A copy of the full log."""
        return list(self._messages)

    def messages_for(self, object_id: str) -> list[PositionUpdateMessage]:
        """All messages from one object, in order."""
        return [m for m in self._messages if m.object_id == object_id]

    def count_for(self, object_id: str) -> int:
        """Number of messages received from ``object_id``."""
        return self._per_object.get(object_id, 0)

    def counts_by_object(self) -> dict[str, int]:
        """Message counts per object id."""
        return dict(self._per_object)

    def total_cost(self, update_cost: float) -> float:
        """Total message cost at ``update_cost`` per message."""
        if update_cost < 0:
            raise QueryError(
                f"update cost must be nonnegative, got {update_cost}"
            )
        return update_cost * len(self._messages)

    def messages_between(self, t1: float, t2: float) -> list[PositionUpdateMessage]:
        """Messages with ``t1 <= time <= t2``."""
        if t1 > t2:
            raise QueryError(f"empty time window [{t1}, {t2}]")
        return [m for m in self._messages if t1 <= m.time <= t2]

__all__ = [
    "PositionUpdateMessage",
    "UpdateLog",
]
