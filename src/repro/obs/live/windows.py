"""Sliding-window aggregators: ring-buffer time buckets over live runs.

Everything `repro.obs` exposed before this module is point-in-time or
post-hoc: a :class:`~repro.obs.metrics.MetricsRegistry` accumulates for
a whole run and is snapshotted at the end.  A :class:`LiveTelemetry`
instead buckets observations on a *time axis* — ring buffers of
fixed-width buckets — so a running service can ask "what was the p95
batch latency over the last five minutes" while the run is still going.

Three windowed series kinds:

* **counters** (:meth:`LiveTelemetry.inc`) — per-window totals and
  rates (update messages, completed sweep cells, ...),
* **histograms** (:meth:`LiveTelemetry.observe`) — per-window bucket
  counts from which :func:`repro.obs.exporters.quantile_from_buckets`
  derives windowed p50/p95/p99,
* **age of information** (:meth:`LiveTelemetry.record_update`) — the
  per-object time since the last position update, the freshness
  quantity the paper's dl/ail/cil policies trade against update cost
  (and the lens of "Age of Positioning with Stochastic Motion
  Models", PAPERS.md).

The time axis is *sim time* by default: `record_update`/`advance` move
``now`` forward monotonically, so windowed counts are a pure function
of the workload and therefore ``--jobs``/``--shards``-invariant (see
EXPERIMENTS.md).  Passing ``clock=time.monotonic`` switches a
telemetry instance to wall-clock seconds for long-running servers.
Wall-clock interval math in this package must use ``time.monotonic()``
or an injected clock, never ``time.time()`` (lint rule RPR102): a
wall-clock step (NTP, suspend) would silently corrupt every window.

:meth:`LiveTelemetry.window_state` emits the whole thing as one plain
JSON-safe dict (``repro-live/1``).  The SLO evaluator
(:mod:`repro.obs.live.slo`) consumes *only* that state, so verdicts
computed live over HTTP and offline from a collector file are
byte-identical.

A :class:`LiveTelemetry` is the probe's live sink
(:mod:`repro.obs.probe`): hooks never feed it directly — a series is
fed when a hook states the metric the catalogue pairs it with
(``dbms_batch_seconds``, ``shard_query_fanout`` -> ``shard_fanout``,
an ``update`` event -> :meth:`LiveTelemetry.record_update`, ...).  The
slot's off-value is a :class:`NullLiveTelemetry` whose ``enabled`` is
``False``; :func:`use_live` is the generic slot installer, bound here.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

from repro.errors import ObservabilityError
from repro.obs.metrics import LATENCY_BUCKETS_S
from repro.obs.probe import slot

#: Schema tag stamped on every :meth:`LiveTelemetry.window_state` dict.
STATE_SCHEMA = "repro-live/1"

#: Default window geometry, in sim-time minutes: a fast 5-minute
#: window for burn-rate spikes, a slow 1-hour window for sustained
#: burn, bucketed at 30 sim-seconds.
DEFAULT_FAST_WINDOW = 5.0
DEFAULT_SLOW_WINDOW = 60.0
DEFAULT_BUCKET = 0.5

#: Age-of-information histogram edges (same time unit as the windows;
#: minutes under the sim clock).
AGE_BUCKETS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0,
)


class _CounterRing:
    """Per-bucket totals of one windowed counter series."""

    __slots__ = ("bucket", "capacity", "epochs", "values", "lifetime")

    def __init__(self, bucket: float, capacity: int) -> None:
        self.bucket = bucket
        self.capacity = capacity
        self.epochs: list[int | None] = [None] * capacity
        self.values: list[float] = [0.0] * capacity
        self.lifetime = 0.0

    def add(self, now: float, amount: float) -> None:
        epoch = int(now // self.bucket)
        slot = epoch % self.capacity
        if self.epochs[slot] != epoch:
            self.epochs[slot] = epoch
            self.values[slot] = 0.0
        self.values[slot] += amount
        self.lifetime += amount

    def total(self, now: float, window_slots: int) -> float:
        epoch = int(now // self.bucket)
        floor = epoch - window_slots
        total = 0.0
        for slot in range(self.capacity):
            e = self.epochs[slot]
            if e is not None and floor < e <= epoch:
                total += self.values[slot]
        return total


class _HistogramRing:
    """Per-bucket histogram rows of one windowed histogram series."""

    __slots__ = ("bucket", "capacity", "bounds", "epochs", "rows",
                 "sums", "counts", "life_row", "life_sum", "life_count")

    def __init__(self, bucket: float, capacity: int,
                 bounds: tuple[float, ...]) -> None:
        self.bucket = bucket
        self.capacity = capacity
        self.bounds = bounds
        self.epochs: list[int | None] = [None] * capacity
        self.rows: list[list[int]] = [
            [0] * (len(bounds) + 1) for _ in range(capacity)
        ]
        self.sums: list[float] = [0.0] * capacity
        self.counts: list[int] = [0] * capacity
        self.life_row: list[int] = [0] * (len(bounds) + 1)
        self.life_sum = 0.0
        self.life_count = 0

    def observe(self, now: float, value: float) -> None:
        epoch = int(now // self.bucket)
        slot = epoch % self.capacity
        if self.epochs[slot] != epoch:
            self.epochs[slot] = epoch
            row = self.rows[slot]
            for i in range(len(row)):
                row[i] = 0
            self.sums[slot] = 0.0
            self.counts[slot] = 0
        index = bisect_left(self.bounds, value)
        self.rows[slot][index] += 1
        self.sums[slot] += value
        self.counts[slot] += 1
        self.life_row[index] += 1
        self.life_sum += value
        self.life_count += 1

    def merged(self, now: float, window_slots: int) -> dict:
        """``{"count", "sum", "bucket_counts"}`` over the window."""
        epoch = int(now // self.bucket)
        floor = epoch - window_slots
        merged = [0] * (len(self.bounds) + 1)
        total_sum = 0.0
        total_count = 0
        for slot in range(self.capacity):
            e = self.epochs[slot]
            if e is not None and floor < e <= epoch:
                row = self.rows[slot]
                for i, n in enumerate(row):
                    merged[i] += n
                total_sum += self.sums[slot]
                total_count += self.counts[slot]
        return {"count": total_count, "sum": total_sum,
                "bucket_counts": merged}

    def lifetime(self) -> dict:
        return {"count": self.life_count, "sum": self.life_sum,
                "bucket_counts": list(self.life_row)}


class LiveTelemetry:
    """Windowed live telemetry over one run's time axis.

    ``clock`` selects the time base: ``None`` (the default) is *sim
    time* — ``now`` only moves when :meth:`advance` or
    :meth:`record_update` push it forward — while a callable (use
    ``time.monotonic``) makes every feed stamp itself with wall-clock
    seconds relative to construction.  Window widths are in the same
    unit as the chosen time base.

    Feeds are cheap (one ring-slot update) and thread-safe under a
    single lock, so the HTTP exporter thread can read a coherent
    :meth:`window_state` while the run thread keeps feeding.
    """

    enabled = True

    def __init__(self, *, fast_window: float = DEFAULT_FAST_WINDOW,
                 slow_window: float = DEFAULT_SLOW_WINDOW,
                 bucket: float = DEFAULT_BUCKET,
                 clock: Callable[[], float] | None = None) -> None:
        if bucket <= 0:
            raise ObservabilityError(f"bucket width must be > 0, got {bucket}")
        if not 0 < fast_window <= slow_window:
            raise ObservabilityError(
                f"need 0 < fast_window <= slow_window, got "
                f"{fast_window} / {slow_window}"
            )
        self.fast_window = float(fast_window)
        self.slow_window = float(slow_window)
        self.bucket = float(bucket)
        self._fast_slots = max(int(round(self.fast_window / self.bucket)), 1)
        self._slow_slots = max(int(round(self.slow_window / self.bucket)), 1)
        self._capacity = self._slow_slots + 1
        self._clock = clock
        self._origin = clock() if clock is not None else 0.0
        self._now = 0.0
        self._lock = threading.Lock()
        self._counters: dict[str, _CounterRing] = {}
        self._histograms: dict[str, _HistogramRing] = {}
        self._last_update: dict[str, float] = {}

    # -- time axis -----------------------------------------------------

    def now(self) -> float:
        """The current position on the telemetry time axis."""
        if self._clock is not None:
            return self._clock() - self._origin
        return self._now

    def advance(self, now: float) -> None:
        """Move sim time forward (no-op under a wall clock or backwards)."""
        if self._clock is None and now > self._now:
            self._now = now

    # -- feeds ---------------------------------------------------------

    def inc(self, series: str, amount: float = 1.0,
            now: float | None = None) -> None:
        """Add ``amount`` to the windowed counter ``series``."""
        with self._lock:
            t = self.now() if now is None else now
            self.advance(t)
            ring = self._counters.get(series)
            if ring is None:
                ring = _CounterRing(self.bucket, self._capacity)
                self._counters[series] = ring
            ring.add(t, amount)

    def observe(self, series: str, value: float,
                buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
                now: float | None = None) -> None:
        """Record ``value`` into the windowed histogram ``series``.

        ``buckets`` fixes the bucket edges on the series' first
        observation; later calls must agree (pass nothing to reuse).
        """
        with self._lock:
            t = self.now() if now is None else now
            self.advance(t)
            ring = self._histograms.get(series)
            if ring is None:
                bounds = tuple(float(b) for b in buckets)
                if not bounds or any(
                        a >= b for a, b in zip(bounds, bounds[1:])):
                    raise ObservabilityError(
                        f"live series {series!r} buckets must strictly "
                        f"increase: {bounds}"
                    )
                ring = _HistogramRing(self.bucket, self._capacity, bounds)
                self._histograms[series] = ring
            ring.observe(t, value)

    def record_update(self, object_id: str, t: float) -> None:
        """Feed one position-update message: AoI + the update counter.

        Advances sim time to ``t``, remembers it as ``object_id``'s
        last update (the age-of-information anchor), and counts it on
        the ``update_messages`` windowed series.
        """
        with self._lock:
            self.advance(t)
            self._last_update[object_id] = t
            ring = self._counters.get("update_messages")
            if ring is None:
                ring = _CounterRing(self.bucket, self._capacity)
                self._counters["update_messages"] = ring
            ring.add(self.now(), 1.0)

    # -- state ---------------------------------------------------------

    def window_state(self, now: float | None = None) -> dict:
        """The full windowed state as one JSON-safe dict (repro-live/1).

        This is the *only* interface the SLO evaluator reads — live
        (over ``/health``) and offline (from a collector file) verdicts
        are byte-identical because both consume exactly this dict.
        """
        with self._lock:
            t = self.now() if now is None else now
            self.advance(t)
            series: dict[str, dict] = {}
            for name in sorted(self._counters):
                ring = self._counters[name]
                fast = ring.total(t, self._fast_slots)
                slow = ring.total(t, self._slow_slots)
                series[name] = {
                    "kind": "counter",
                    "windows": {
                        "fast": {"total": fast},
                        "slow": {"total": slow},
                    },
                    "lifetime": {"total": ring.lifetime},
                }
            for name in sorted(self._histograms):
                ring = self._histograms[name]
                series[name] = {
                    "kind": "histogram",
                    "bounds": list(ring.bounds),
                    "windows": {
                        "fast": ring.merged(t, self._fast_slots),
                        "slow": ring.merged(t, self._slow_slots),
                    },
                    "lifetime": ring.lifetime(),
                }
            ages = sorted(
                t - last for last in self._last_update.values()
            )
            age_counts = [0] * (len(AGE_BUCKETS) + 1)
            age_sum = 0.0
            for age in ages:
                age_counts[bisect_left(AGE_BUCKETS, age)] += 1
                age_sum += age
            return {
                "schema": STATE_SCHEMA,
                "now": t,
                "fast_window": self.fast_window,
                "slow_window": self.slow_window,
                "bucket": self.bucket,
                "series": series,
                "aoi": {
                    "objects": len(ages),
                    "max_age": ages[-1] if ages else 0.0,
                    "sum_age": age_sum,
                    "bounds": list(AGE_BUCKETS),
                    "bucket_counts": age_counts,
                },
            }

    def ages(self, now: float | None = None) -> dict[str, float]:
        """Per-object age of information at ``now`` (sorted by id)."""
        with self._lock:
            t = self.now() if now is None else now
            return {
                object_id: t - last
                for object_id, last in sorted(self._last_update.items())
            }


class _NullLock:
    """The null telemetry never contends; skip real lock traffic."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


class NullLiveTelemetry(LiveTelemetry):
    """The do-nothing live telemetry installed by default.

    ``enabled`` is ``False`` so feed sites skip the call entirely; the
    methods still exist (and no-op) for unconditional callers.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._lock = _NullLock()  # type: ignore[assignment]

    def inc(self, series: str, amount: float = 1.0,
            now: float | None = None) -> None:
        pass

    def observe(self, series: str, value: float,
                buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
                now: float | None = None) -> None:
        pass

    def record_update(self, object_id: str, t: float) -> None:
        pass


get_live, set_live, use_live = slot(
    "live", LiveTelemetry, NullLiveTelemetry())


__all__ = [
    "AGE_BUCKETS",
    "DEFAULT_BUCKET",
    "DEFAULT_FAST_WINDOW",
    "DEFAULT_SLOW_WINDOW",
    "LiveTelemetry",
    "NullLiveTelemetry",
    "STATE_SCHEMA",
    "get_live",
    "set_live",
    "use_live",
]
