"""The registry and tracer slots of the probe.

The library never forces observability on its callers: the probe's
registry slot holds a :class:`~repro.obs.metrics.NullRegistry` and its
tracer slot a :class:`~repro.obs.tracing.NullTracer` until an observed
run installs live ones — for the whole process (:func:`set_registry`)
or scoped to a block (:func:`use_registry`) — and the previous ones are
restored afterwards.  These are the same generic slot installer
(:func:`repro.obs.probe.slot`) bound twice; instrumented code never
calls them, it states facts to :func:`repro.obs.probe.probe`.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.probe import probe, slot
from repro.obs.tracing import NullTracer, Tracer

get_registry, set_registry, use_registry = slot(
    "registry", MetricsRegistry, NullRegistry())
get_tracer, set_tracer, use_tracer = slot("tracer", Tracer, NullTracer())


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op under the default)."""
    return probe().tracer.span(name, **attrs)

__all__ = [
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "span",
    "use_registry",
    "use_tracer",
]
