"""The live telemetry HTTP exporter: ``/metrics``, ``/health``, ``/snapshot``.

A :class:`LiveServer` wraps a stdlib :class:`ThreadingHTTPServer` in a
daemon thread so a running simulation (or ``repro monitor serve``) can
be scraped while it works:

* ``GET /metrics`` — the active registry in Prometheus text format
  (:func:`repro.obs.exporters.prometheus_text`) followed by the
  windowed live series rendered as ``repro_live_*`` gauges (per-window
  rates, p50/p95/p99, age-of-information stats),
* ``GET /health`` — the SLO burn-rate verdict as canonical JSON
  (:func:`repro.obs.live.slo.verdict_json`); HTTP 200 unless some SLO
  is *burning*, then 503 — a load balancer's readiness check,
* ``GET /snapshot`` — the raw registry snapshot plus the live window
  state as one JSON document, for ad-hoc inspection.

``port=0`` binds an ephemeral port (tests, CI); :meth:`LiveServer.start`
returns the bound port and :meth:`LiveServer.stop` tears the thread
down cleanly.  Handlers only *read* — the GIL keeps plain dict/list
reads coherent against the feeding thread, and ``window_state`` takes
the telemetry lock for a consistent cut.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import accumulate

from repro.errors import ObservabilityError
from repro.obs.exporters import prometheus_text, quantile_from_buckets
from repro.obs.live.slo import SLOSpec, evaluate, healthy, verdict_json
from repro.obs.live.windows import LiveTelemetry
from repro.obs.metrics import MetricsRegistry

#: Content type of the Prometheus exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles rendered for windowed histogram series.
LIVE_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def window_quantile(bounds: list, block: dict, q: float) -> float:
    """The ``q``-quantile of one window of a windowed histogram.

    ``block`` holds the window's per-bucket counts over ``bounds`` (plus
    the overflow bucket) and its total ``count``; they become the
    cumulative ``{"le", "count"}`` pairs
    :func:`~repro.obs.exporters.quantile_from_buckets` reads.
    """
    cumulative = [{"le": bound, "count": running} for bound, running
                  in zip(bounds, accumulate(block["bucket_counts"]))]
    cumulative.append({"le": float("inf"), "count": block["count"]})
    return quantile_from_buckets(cumulative, q)


def live_prometheus_lines(state: dict) -> list[str]:
    """Render one window state as ``repro_live_*`` Prometheus lines.

    Windowed counters become per-window totals and rates; windowed
    histograms become per-window counts and quantiles; the AoI block
    becomes object/max/mean gauges.  All series are gauges: each scrape
    re-derives them from the ring buffers, nothing accumulates.
    """
    lines: list[str] = []
    windows = {"fast": state["fast_window"], "slow": state["slow_window"]}
    lines.append("# TYPE repro_live_window_total gauge")
    lines.append("# TYPE repro_live_window_rate gauge")
    for name, entry in state["series"].items():
        for window, width in windows.items():
            block = entry["windows"][window]
            if entry["kind"] == "counter":
                total = block["total"]
            else:
                total = block["count"]
            labels = f'series="{name}",window="{window}"'
            lines.append(
                f"repro_live_window_total{{{labels}}} {_fmt(total)}"
            )
            lines.append(
                f"repro_live_window_rate{{{labels}}} {_fmt(total / width)}"
            )
    lines.append("# TYPE repro_live_window_quantile gauge")
    for name, entry in state["series"].items():
        if entry["kind"] != "histogram":
            continue
        for window in windows:
            for q in LIVE_QUANTILES:
                value = window_quantile(entry["bounds"],
                                        entry["windows"][window], q)
                labels = (f'series="{name}",window="{window}",'
                          f'quantile="{_fmt(q)}"')
                lines.append(
                    f"repro_live_window_quantile{{{labels}}} {_fmt(value)}"
                )
    aoi = state["aoi"]
    objects = aoi["objects"]
    lines.append("# TYPE repro_live_aoi gauge")
    lines.append(f'repro_live_aoi{{stat="objects"}} {_fmt(objects)}')
    lines.append(f'repro_live_aoi{{stat="max_age"}} {_fmt(aoi["max_age"])}')
    mean = aoi["sum_age"] / objects if objects else 0.0
    lines.append(f'repro_live_aoi{{stat="mean_age"}} {_fmt(mean)}')
    return lines


class LiveServer:
    """Serve live telemetry over HTTP from a daemon thread."""

    def __init__(self, registry: MetricsRegistry,
                 telemetry: LiveTelemetry | None = None,
                 spec: SLOSpec | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._registry = registry
        self._telemetry = telemetry
        self._spec = spec if spec is not None else SLOSpec(slos=())
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- payload builders (also used by the CLI without a server) ------

    def metrics_text(self) -> str:
        text = prometheus_text(self._registry)
        if self._telemetry is not None:
            lines = live_prometheus_lines(self._telemetry.window_state())
            text += "\n".join(lines) + ("\n" if lines else "")
        return text

    def health(self) -> tuple[int, str]:
        """``(http_status, canonical verdict JSON body)``."""
        state = (self._telemetry.window_state()
                 if self._telemetry is not None else
                 {"schema": "repro-live/1", "now": 0.0, "series": {},
                  "fast_window": 0.0, "slow_window": 0.0,
                  "aoi": {"objects": 0}})
        verdict = evaluate(self._spec, state)
        return (200 if healthy(verdict) else 503,
                verdict_json(verdict) + "\n")

    def snapshot_json(self) -> str:
        document = {
            "metrics": self._registry.snapshot(),
            "live": (self._telemetry.window_state()
                     if self._telemetry is not None else None),
        }
        return json.dumps(document, sort_keys=True, default=_json_inf) + "\n"

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            raise ObservabilityError("live server is not running")
        return self._httpd.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self._host}:{self.port}{path}"

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._httpd is not None:
            raise ObservabilityError("live server already running")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    if self.path in ("/metrics", "/"):
                        body = server.metrics_text().encode("utf-8")
                        status, content_type = 200, PROM_CONTENT_TYPE
                    elif self.path == "/health":
                        status, text = server.health()
                        body = text.encode("utf-8")
                        content_type = "application/json"
                    elif self.path == "/snapshot":
                        body = server.snapshot_json().encode("utf-8")
                        status, content_type = 200, "application/json"
                    else:
                        body = b"not found\n"
                        status, content_type = 404, "text/plain"
                except Exception as exc:  # pragma: no cover - defensive
                    body = f"error: {exc}\n".encode("utf-8")
                    status, content_type = 500, "text/plain"
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass  # scrapes must not spam the run's stdout

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-live-server",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "LiveServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False


def _json_inf(value: object) -> str:
    return str(value)


__all__ = [
    "LIVE_QUANTILES",
    "LiveServer",
    "PROM_CONTENT_TYPE",
    "live_prometheus_lines",
    "window_quantile",
]
