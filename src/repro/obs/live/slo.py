"""Declarative SLOs with multi-window burn-rate evaluation.

An SLO document (``repro-slo/1``) is a JSON object declaring targets
over windowed series from :meth:`LiveTelemetry.window_state`:

.. code-block:: json

    {"schema": "repro-slo/1",
     "slos": [
       {"name": "batch-latency", "kind": "latency_quantile",
        "series": "dbms_batch_seconds", "q": 0.95, "threshold": 0.25},
       {"name": "query-errors", "kind": "error_rate",
        "total_series": "dbms_batch_queries",
        "error_series": "dbms_batch_errors", "ceiling": 0.01},
       {"name": "freshness", "kind": "staleness",
        "bound": 5.0, "max_stale_fraction": 0.2}]}

Three objective kinds:

* ``latency_quantile`` — "q of observations must be <= threshold":
  an observation above ``threshold`` is *bad*, the error budget is
  ``1 - q``.  Thresholds snap **down** to the nearest histogram bucket
  edge, so classification errs toward alerting.
* ``error_rate`` — the ratio of two windowed counters must stay under
  ``ceiling`` (the budget).
* ``staleness`` — the fraction of objects whose age of information
  exceeds ``bound`` must stay under ``max_stale_fraction``.  AoI is
  instantaneous, so both windows report the same number.

Evaluation is the multi-window burn-rate scheme: the *burn rate* is
``bad_fraction / budget_fraction`` (1.0 = spending the budget exactly
on schedule), computed over the state's fast (default 5 sim-minute)
and slow (default 1 sim-hour) windows.  An SLO is ``burning`` when
both windows exceed their thresholds (defaults ``fast_burn`` 14.4,
``slow_burn`` 6.0 — the classic page-severity pair), ``warn`` when
either window alone does or the slow window exceeds 1.0, ``ok``
otherwise, and ``no_data`` before any sample arrives.  An
*error-budget ledger* over the lifetime totals rides along.

:func:`evaluate` is a pure function of ``(spec, window_state)`` — no
clocks, no registry reads — which is what makes live (``/health``)
and offline (``repro monitor check``) verdicts byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ObservabilityError, SpecReader, read_json_object

#: Schema tag of SLO documents.
SLO_SCHEMA = "repro-slo/1"
#: Schema tag of verdict documents.
VERDICT_SCHEMA = "repro-slo-verdict/1"

#: Default burn-rate thresholds (fast AND slow must exceed to page).
DEFAULT_FAST_BURN = 14.4
DEFAULT_SLOW_BURN = 6.0

_KINDS = ("latency_quantile", "error_rate", "staleness")

STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_BURNING = "burning"
STATUS_NO_DATA = "no_data"

_SEVERITY = {STATUS_NO_DATA: 0, STATUS_OK: 1, STATUS_WARN: 2,
             STATUS_BURNING: 3}


@dataclass(frozen=True, slots=True)
class SLO:
    """One parsed objective."""

    name: str
    kind: str
    params: dict
    fast_burn: float = DEFAULT_FAST_BURN
    slow_burn: float = DEFAULT_SLOW_BURN


@dataclass(frozen=True, slots=True)
class SLOSpec:
    """A parsed ``repro-slo/1`` document."""

    slos: tuple[SLO, ...]


def parse_slo(document: dict) -> SLOSpec:
    """Validate and parse one ``repro-slo/1`` JSON document."""
    if not isinstance(document, dict):
        raise ObservabilityError("SLO document must be a JSON object")
    if document.get("schema") != SLO_SCHEMA:
        raise ObservabilityError(
            f"SLO document schema {document.get('schema')!r} != "
            f"{SLO_SCHEMA!r}"
        )
    entries = document.get("slos")
    if not isinstance(entries, list) or not entries:
        raise ObservabilityError("SLO document needs a non-empty 'slos' list")
    slos: list[SLO] = []
    seen: set[str] = set()
    for entry in entries:
        name = SpecReader(entry, ObservabilityError, "slo entry").get(
            "name", str)
        fields = SpecReader(entry, ObservabilityError, f"slo {name!r}")
        if name in seen:
            raise ObservabilityError(f"duplicate slo name {name!r}")
        seen.add(name)
        kind = fields.get("kind", str)
        if kind not in _KINDS:
            raise fields.fail(f"unknown kind {kind!r}; known: {_KINDS}")
        params: dict = {}
        if kind == "latency_quantile":
            params["series"] = fields.get("series", str)
            q = fields.number("q")
            if not 0.0 < q < 1.0:
                raise fields.fail(f"q must be in (0, 1), got {q}")
            params["q"] = float(q)
            params["threshold"] = float(fields.number("threshold"))
        elif kind == "error_rate":
            params["total_series"] = fields.get("total_series", str)
            params["error_series"] = fields.get("error_series", str)
            ceiling = fields.number("ceiling")
            if not 0.0 < ceiling <= 1.0:
                raise fields.fail(f"ceiling must be in (0, 1], got {ceiling}")
            params["ceiling"] = float(ceiling)
        else:
            params["bound"] = float(fields.number("bound"))
            fraction = fields.number("max_stale_fraction")
            if not 0.0 < fraction <= 1.0:
                raise fields.fail(f"max_stale_fraction must be in (0, 1], "
                                  f"got {fraction}")
            params["max_stale_fraction"] = float(fraction)
        slos.append(SLO(
            name=name, kind=kind, params=params,
            fast_burn=float(fields.number("fast_burn", DEFAULT_FAST_BURN)),
            slow_burn=float(fields.number("slow_burn", DEFAULT_SLOW_BURN)),
        ))
    return SLOSpec(slos=tuple(slos))


def load_slo(path: str) -> SLOSpec:
    """Parse the SLO document at ``path``."""
    return parse_slo(read_json_object(path, ObservabilityError, "SLO spec"))


def _bad_from_buckets(bounds: list, bucket_counts: list,
                      threshold: float) -> int:
    """Observations strictly above the bucket edge at/below ``threshold``.

    Bucket counts are per-bucket with ``le`` semantics; the threshold
    snaps down to the largest edge ``<= threshold`` so an observation
    that *might* exceed the threshold counts as bad (alerting errs
    toward firing, never toward silence).
    """
    good = 0
    total = sum(bucket_counts)
    for bound, count in zip(bounds, bucket_counts):
        if bound <= threshold:
            good += count
        else:
            break
    return total - good


def _window_block(total: int | float, bad: float, budget: float,
                  burn_threshold: float) -> dict:
    bad_fraction = bad / total if total else 0.0
    burn_rate = bad_fraction / budget if budget else 0.0
    return {
        "total": total,
        "bad": bad,
        "bad_fraction": bad_fraction,
        "burn_rate": burn_rate,
        "burn_threshold": burn_threshold,
        "exceeded": bool(total) and burn_rate >= burn_threshold,
    }


def _ledger(total: int | float, bad: float, budget: float) -> dict:
    allowed = total * budget
    consumed = bad / allowed if allowed else 0.0
    return {
        "total": total,
        "bad": bad,
        "budget_fraction": budget,
        "allowed_bad": allowed,
        "consumed_fraction": consumed,
        "remaining_fraction": 1.0 - consumed,
    }


def _status(fast: dict, slow: dict) -> str:
    if not fast["total"] and not slow["total"]:
        return STATUS_NO_DATA
    if fast["exceeded"] and slow["exceeded"]:
        return STATUS_BURNING
    if fast["exceeded"] or slow["exceeded"] or (
            slow["total"] and slow["burn_rate"] >= 1.0):
        return STATUS_WARN
    return STATUS_OK


def _counts(state: dict, slo: SLO):
    """(fast, slow, lifetime) ``(total, bad)`` tuples plus the budget."""
    series = state.get("series", {})
    if slo.kind == "latency_quantile":
        entry = series.get(slo.params["series"])
        budget = 1.0 - slo.params["q"]
        if entry is None or entry.get("kind") != "histogram":
            return ((0, 0.0), (0, 0.0), (0, 0.0)), budget
        threshold = slo.params["threshold"]
        out = []
        for block in (entry["windows"]["fast"], entry["windows"]["slow"],
                      entry["lifetime"]):
            bad = _bad_from_buckets(entry["bounds"],
                                    block["bucket_counts"], threshold)
            out.append((block["count"], float(bad)))
        return tuple(out), budget
    if slo.kind == "error_rate":
        budget = slo.params["ceiling"]
        totals = series.get(slo.params["total_series"])
        errors = series.get(slo.params["error_series"])
        out = []
        for window in ("fast", "slow", "lifetime"):
            def pick(entry, key=window):
                if entry is None or entry.get("kind") != "counter":
                    return 0.0
                block = (entry["lifetime"] if key == "lifetime"
                         else entry["windows"][key])
                return block["total"]
            out.append((pick(totals), pick(errors)))
        return tuple(out), budget
    # staleness: instantaneous, identical in every window.
    budget = slo.params["max_stale_fraction"]
    aoi = state.get("aoi", {"objects": 0})
    total = aoi.get("objects", 0)
    stale = float(_bad_from_buckets(
        aoi.get("bounds", []), aoi.get("bucket_counts", []),
        slo.params["bound"],
    )) if total else 0.0
    block = (total, stale)
    return (block, block, block), budget


def evaluate(spec: SLOSpec, state: dict) -> dict:
    """Burn-rate verdicts for every SLO against one window state.

    Pure data-in/data-out: the same ``state`` dict (fresh from
    :meth:`LiveTelemetry.window_state` or parsed back from a collector
    file) always yields the same verdict, byte-for-byte once
    serialized with :func:`verdict_json`.
    """
    verdicts = []
    worst = STATUS_NO_DATA
    for slo in spec.slos:
        ((fast_total, fast_bad), (slow_total, slow_bad),
         (life_total, life_bad)), budget = _counts(state, slo)
        fast = _window_block(fast_total, fast_bad, budget, slo.fast_burn)
        slow = _window_block(slow_total, slow_bad, budget, slo.slow_burn)
        status = _status(fast, slow)
        if _SEVERITY[status] > _SEVERITY[worst]:
            worst = status
        verdicts.append({
            "name": slo.name,
            "kind": slo.kind,
            "params": dict(sorted(slo.params.items())),
            "status": status,
            "windows": {"fast": fast, "slow": slow},
            "budget": _ledger(life_total, life_bad, budget),
        })
    return {
        "schema": VERDICT_SCHEMA,
        "now": state.get("now", 0.0),
        "fast_window": state.get("fast_window", 0.0),
        "slow_window": state.get("slow_window", 0.0),
        "status": worst,
        "slos": verdicts,
    }


def verdict_json(verdict: dict) -> str:
    """The canonical serialization every consumer compares bytes of."""
    return json.dumps(verdict, sort_keys=True)


def healthy(verdict: dict) -> bool:
    """The ``/health`` rollup: only a burning SLO takes the service down."""
    return verdict["status"] != STATUS_BURNING


__all__ = [
    "DEFAULT_FAST_BURN",
    "DEFAULT_SLOW_BURN",
    "SLO",
    "SLOSpec",
    "SLO_SCHEMA",
    "STATUS_BURNING",
    "STATUS_NO_DATA",
    "STATUS_OK",
    "STATUS_WARN",
    "VERDICT_SCHEMA",
    "evaluate",
    "healthy",
    "load_slo",
    "parse_slo",
    "verdict_json",
]
