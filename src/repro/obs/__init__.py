"""Observability: one probe, its three sinks, and exporters.

Instrumented code states each fact once to the process's single
:class:`~repro.obs.probe.Probe` (:func:`repro.obs.probe.probe`, not
re-exported here: the name is the submodule's); the probe decides
which installed sinks hear it, and the metric catalogue
(:mod:`repro.obs.catalogue`) declares every series name once — kind,
help text, buckets.  The sinks in this package:

* **Instruments** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms owned by a :class:`MetricsRegistry`; a
  :class:`NullRegistry` is the zero-cost process default.
* **Tracing** (:mod:`repro.obs.tracing`) — nested timed spans recorded
  by a :class:`Tracer` with JSONL export; :func:`span` opens a span on
  the process tracer.
* **Exporters** (:mod:`repro.obs.exporters`) — Prometheus text format
  and JSONL snapshots.

(The third sink, the flight recorder, is :mod:`repro.trace`.)  Enable
one sink for a block::

    from repro.obs import use_registry, prometheus_text

    with use_registry() as registry:
        simulate_trip(trip, policy)
    print(prometheus_text(registry))

or several at once with :func:`observe` (``repro stats`` and
``--metrics-out`` do this for you)::

    with observe(registry=True, tracer=True) as p:
        ...
    print(prometheus_text(p.registry), len(p.tracer))
"""

from repro.obs.catalogue import CATALOGUE, Metric

from repro.obs.exporters import (
    jsonl_lines,
    jsonl_snapshot,
    prometheus_text,
    write_jsonl,
    write_prometheus,
)
from repro.obs.instrument import time_section, timed
from repro.obs.perf import (
    FlameSummary,
    SpanStats,
    flame_summary,
    print_flame_summary,
    render_flame_summary,
    root_time,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    MILE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.probe import Probe, observe
from repro.obs.registry import (
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
    span,
    use_registry,
    use_tracer,
)
from repro.obs.tracing import NullTracer, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "LATENCY_BUCKETS_S",
    "MILE_BUCKETS",
    "COUNT_BUCKETS",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "span",
    "get_registry",
    "set_registry",
    "use_registry",
    "CATALOGUE",
    "Metric",
    "Probe",
    "observe",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "timed",
    "time_section",
    "FlameSummary",
    "SpanStats",
    "flame_summary",
    "render_flame_summary",
    "print_flame_summary",
    "root_time",
    "prometheus_text",
    "jsonl_lines",
    "jsonl_snapshot",
    "write_prometheus",
    "write_jsonl",
]
