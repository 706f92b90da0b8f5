"""Live telemetry: sliding windows, SLO burn rates, HTTP exporter.

The four pieces compose into a monitoring loop for a running
simulation (``repro monitor serve``):

* :mod:`~repro.obs.live.windows` — ring-buffer sliding-window
  aggregators (counters, histograms, age of information),
* :mod:`~repro.obs.live.slo` — declarative ``repro-slo/1`` objectives
  with multi-window burn-rate evaluation,
* :mod:`~repro.obs.live.server` — the ``/metrics`` / ``/health`` /
  ``/snapshot`` HTTP endpoint in a daemon thread,
* :mod:`~repro.obs.live.collector` — JSONL snapshots for offline
  replay through the same evaluator (``repro monitor check``).
"""

from repro.obs.live.collector import (
    COLLECTOR_SCHEMA,
    LiveCollector,
    check_file,
    read_collector,
)
from repro.obs.live.server import (
    LIVE_QUANTILES,
    LiveServer,
    PROM_CONTENT_TYPE,
    live_prometheus_lines,
    window_quantile,
)
from repro.obs.live.slo import (
    DEFAULT_FAST_BURN,
    DEFAULT_SLOW_BURN,
    SLO,
    SLO_SCHEMA,
    SLOSpec,
    STATUS_BURNING,
    STATUS_NO_DATA,
    STATUS_OK,
    STATUS_WARN,
    VERDICT_SCHEMA,
    evaluate,
    healthy,
    load_slo,
    parse_slo,
    verdict_json,
)
from repro.obs.live.windows import (
    AGE_BUCKETS,
    DEFAULT_BUCKET,
    DEFAULT_FAST_WINDOW,
    DEFAULT_SLOW_WINDOW,
    LiveTelemetry,
    NullLiveTelemetry,
    STATE_SCHEMA,
    get_live,
    set_live,
    use_live,
)

__all__ = [
    "AGE_BUCKETS",
    "COLLECTOR_SCHEMA",
    "DEFAULT_BUCKET",
    "DEFAULT_FAST_BURN",
    "DEFAULT_FAST_WINDOW",
    "DEFAULT_SLOW_BURN",
    "DEFAULT_SLOW_WINDOW",
    "LIVE_QUANTILES",
    "LiveCollector",
    "LiveServer",
    "LiveTelemetry",
    "NullLiveTelemetry",
    "PROM_CONTENT_TYPE",
    "SLO",
    "SLOSpec",
    "SLO_SCHEMA",
    "STATE_SCHEMA",
    "STATUS_BURNING",
    "STATUS_NO_DATA",
    "STATUS_OK",
    "STATUS_WARN",
    "VERDICT_SCHEMA",
    "check_file",
    "evaluate",
    "get_live",
    "healthy",
    "live_prometheus_lines",
    "load_slo",
    "parse_slo",
    "read_collector",
    "set_live",
    "use_live",
    "verdict_json",
    "window_quantile",
]
