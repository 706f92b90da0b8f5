"""Metric instruments and the metrics registry.

The observability layer's data model follows the Prometheus conventions
(counters, gauges, fixed-bucket histograms) without any external
dependency.  A :class:`MetricsRegistry` owns every instrument, keyed by
``(name, labels)``; asking for the same name+labels twice returns the
same instrument, so call sites never need to cache handles across
modules (though hot loops should hoist the lookup).

Two registry flavours exist:

* :class:`MetricsRegistry` — the real thing, used when a run opts into
  observability (``repro stats``, ``--metrics-out``, or an explicit
  :func:`repro.obs.registry.use_registry`).
* :class:`NullRegistry` — the off-value of the probe's registry slot.
  Every instrument it hands out is a shared no-op singleton and
  ``enabled`` is ``False``, so with nothing else installed the probe
  (:mod:`repro.obs.probe`) reads disabled and hooks skip their blocks.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from repro.errors import ObservabilityError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for wall-clock durations in seconds
#: (micro- to multi-second; query and run latencies both fit).
LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default buckets for distances in miles (deviations, bounds).
MILE_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0,
)

#: Default buckets for small nonnegative counts (results per search,
#: boxes per o-plane, ...).
COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A value that can go up and down (fleet size, last avg deviation)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket histogram of nonnegative-ish observations.

    ``bounds`` are the finite upper bucket edges (``le`` semantics); an
    implicit ``+Inf`` bucket catches the overflow.  Bucket counts are
    stored per-bucket and cumulated only at snapshot time.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...],
                 labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Every element of ``values`` (any shape), as a loop of
        :meth:`observe` would count it; ``sum`` takes one array sum, so
        it may differ from the loop's in the last digits."""
        import numpy as np

        buckets = np.searchsorted(self.bounds, values.reshape(-1), "left")
        for bucket, count in enumerate(np.bincount(buckets).tolist()):
            self.bucket_counts[bucket] += count
        self.sum += float(values.sum())
        self.count += values.size

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(+Inf, count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (for summaries)."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            if running >= target:
                return bound
        return self.bounds[-1] if self.bounds else 0.0


def _validate_buckets(name: str, buckets: tuple[float, ...]) -> tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
    if any(b >= c for b, c in zip(bounds, bounds[1:])):
        raise ObservabilityError(
            f"histogram {name!r} buckets must strictly increase: {bounds}"
        )
    if not all(math.isfinite(b) for b in bounds):
        raise ObservabilityError(
            f"histogram {name!r} buckets must be finite (+Inf is implicit)"
        )
    return bounds


class MetricsRegistry:
    """Owns every instrument of one observed run.

    Instruments are created lazily on first use and shared thereafter;
    a name is permanently bound to one kind (asking for a counter and
    later a gauge under the same name is an error).  Creation is
    thread-safe; sample updates rely on the GIL's atomicity for plain
    float/int arithmetic, which matches the single-process simulator.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            return self._as_kind(instrument, Histogram)  # type: ignore[return-value]
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                return self._as_kind(instrument, Histogram)  # type: ignore[return-value]
            self._check_name(Histogram, name, help, labels)
            bounds = self._buckets.get(name)
            if bounds is None:
                bounds = _validate_buckets(name, buckets)
                self._buckets[name] = bounds
            histogram = Histogram(name, bounds, _label_key(labels))
            self._instruments[(name, histogram.labels)] = histogram
            return histogram

    def _get(self, cls: type, name: str, help: str,
             labels: dict[str, str]) -> object:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            return self._as_kind(instrument, cls)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                return self._as_kind(instrument, cls)
            self._check_name(cls, name, help, labels)
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
            return instrument

    @staticmethod
    def _as_kind(instrument, cls: type):
        if not isinstance(instrument, cls):
            raise ObservabilityError(
                f"metric {instrument.name!r} is a "  # type: ignore[attr-defined]
                f"{instrument.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
            )
        return instrument

    def _check_name(self, cls: type, name: str, help: str,
                    labels: dict[str, str]) -> None:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ObservabilityError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        kind = cls.kind  # type: ignore[attr-defined]
        bound = self._kinds.setdefault(name, kind)
        if bound != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {bound}, not a {kind}"
            )
        self.describe(name, help)

    # -- introspection -------------------------------------------------

    def get(self, name: str, **labels: str) -> object | None:
        """The instrument registered under ``name`` + ``labels``, if any."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Counter/gauge value (0.0 when the instrument does not exist)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise ObservabilityError(
                f"metric {name!r} is a histogram; read .sum/.count instead"
            )
        return instrument.value  # type: ignore[union-attr]

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._kinds)

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def describe(self, name: str, help: str) -> None:
        """Give ``name`` its help text, unless it already has one."""
        if help and name not in self._help:
            self._help[name] = help

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, list[dict]]:
        """A plain-data snapshot of every instrument (exporter input).

        Samples are sorted by (name, labels) so snapshots of identical
        runs compare equal — the determinism tests rely on this.
        """
        counters: list[dict] = []
        gauges: list[dict] = []
        histograms: list[dict] = []
        for (name, labels), instrument in sorted(self._instruments.items()):
            sample: dict = {"name": name, "labels": dict(labels)}
            if isinstance(instrument, Counter):
                sample["value"] = instrument.value
                counters.append(sample)
            elif isinstance(instrument, Gauge):
                sample["value"] = instrument.value
                gauges.append(sample)
            else:
                assert isinstance(instrument, Histogram)
                sample["sum"] = instrument.sum
                sample["count"] = instrument.count
                sample["buckets"] = [
                    {"le": le, "count": count}
                    for le, count in instrument.cumulative_buckets()
                ]
                histograms.append(sample)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class _NullCounter:
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: np.ndarray) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """The do-nothing registry installed by default.

    ``enabled`` is ``False`` so instrumented code can skip per-sample
    work entirely; the accessor methods still return (shared, stateless)
    instruments so unconditional call sites stay correct.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str):  # type: ignore[override]
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: str):  # type: ignore[override]
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "",  # type: ignore[override]
                  buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
                  **labels: str):
        return _NULL_HISTOGRAM

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "LabelKey",
    "MILE_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
]
