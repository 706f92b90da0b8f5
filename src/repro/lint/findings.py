"""Finding and severity types for the paper-invariant lint engine.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rule severities.  Both fail the gate — the engine is strict by
#: design, since every rule guards a reproduction invariant — but the
#: distinction is reported so readers can triage.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    severity: str
    message: str

    def format_text(self) -> str:
        """The one-line human-readable rendering."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.severity}] {self.message}")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready rendering (see the ``repro-lint/1`` schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }


def valid_severity(severity: str) -> bool:
    """Whether ``severity`` is one of the known severity labels."""
    return severity in _SEVERITIES


__all__ = [
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "valid_severity",
]
