"""The decorator and block spellings of :meth:`Probe.timed`.

:func:`timed` and :func:`time_section` time a function or a ``with``
block into a latency histogram through the probe: one ``perf_counter``
pair feeds the registry histogram and — when the block raises — its
error counter.  Both read the
probe at call time and short-circuit when nothing listens, so
decorating a hot method costs one extra function call and one
attribute check per invocation — nothing else.  A metric's help text
and buckets come from :mod:`repro.obs.catalogue`.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, TypeVar

from repro.obs.probe import probe

F = TypeVar("F", bound=Callable)


def timed(metric: str, **labels: str) -> Callable[[F], F]:
    """Decorate a function to record its duration in ``metric`` (seconds)."""

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            p = probe()
            if not p.enabled:
                return fn(*args, **kwargs)
            with p.timed(metric, **labels):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def time_section(metric: str, **labels: str) -> Any:
    """Record the duration of a ``with`` block into ``metric`` (seconds)."""
    return probe().timed(metric, **labels)

__all__ = [
    "F",
    "time_section",
    "timed",
]
