"""Baseline comparison and regression gating for benchmark results.

A *baseline* is simply a committed result document (see
:mod:`repro.bench.harness`) under ``benchmarks/baselines/``.  The gate
compares each current case's **min** time against the baseline's —
min-of-N is the noise-robust statistic; medians wobble on small N —
and flags a regression when ``current_min > tolerance * baseline_min``.

Baselines record the environment fingerprint of the machine that
produced them.  When the current machine's fingerprint differs, the
comparison still runs but is advisory by nature: either gate with a
generous tolerance (CI smoke uses 2x) or pass ``advisory=True`` to
downgrade regressions to warnings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import BenchmarkError, validate_results

#: Default regression gate: current min may be up to 1.5x baseline min.
DEFAULT_TOLERANCE = 1.5

#: Fingerprint keys that identify a machine (git SHA moves every
#: commit and is deliberately excluded).
_MACHINE_KEYS = ("python", "implementation", "platform", "machine",
                 "cpu_count")


@dataclass(slots=True)
class Comparison:
    """One case's fate against the baseline."""

    name: str
    status: str  # "ok" | "regression" | "improvement" | "new" | "missing"
    baseline_min_s: float | None
    current_min_s: float | None
    ratio: float | None

    def describe(self) -> str:
        if self.status == "new":
            return f"{self.name}: new (no baseline entry)"
        if self.status == "missing":
            return f"{self.name}: in baseline but not in this run"
        return (f"{self.name}: {self.current_min_s:.6f}s vs baseline "
                f"{self.baseline_min_s:.6f}s ({self.ratio:.2f}x) "
                f"-> {self.status}")


def default_baseline_path(bench_dir: str | Path, fast: bool) -> Path:
    """Where the committed baseline for this mode lives."""
    mode = "fast" if fast else "full"
    return Path(bench_dir) / "baselines" / f"bench-{mode}.json"


def load_baseline(path: str | Path) -> dict:
    """Read and schema-validate a baseline document."""
    baseline_path = Path(path)
    if not baseline_path.is_file():
        raise BenchmarkError(f"baseline not found: {baseline_path}")
    with open(baseline_path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise BenchmarkError(
                f"baseline {baseline_path} is not valid JSON: {exc}"
            ) from None
    validate_results(document)
    return document


def write_results(document: dict, path: str | Path) -> None:
    """Schema-validate and write a result document as pretty JSON."""
    validate_results(document)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def same_machine(current_env: dict, baseline_env: dict) -> bool:
    """Do the two fingerprints describe comparable hardware?"""
    return all(current_env.get(k) == baseline_env.get(k)
               for k in _MACHINE_KEYS)


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`BenchmarkError` unless ``tolerance`` is positive and
    finite (at NaN or inf no ratio would ever regress)."""
    if not 0 < tolerance < float("inf"):
        raise BenchmarkError(
            f"tolerance must be positive and finite, got {tolerance}")


def compare(current: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list[Comparison]:
    """Pair up the two documents' cases; one :class:`Comparison` each."""
    check_tolerance(tolerance)
    baseline_by_name = {r["name"]: r for r in baseline["results"]}
    comparisons: list[Comparison] = []
    for result in current["results"]:
        entry = baseline_by_name.pop(result["name"], None)
        if entry is None:
            comparisons.append(Comparison(
                name=result["name"], status="new",
                baseline_min_s=None, current_min_s=result["min_s"],
                ratio=None,
            ))
            continue
        ratio = (result["min_s"] / entry["min_s"]
                 if entry["min_s"] > 0 else float("inf"))
        if ratio > tolerance:
            status = "regression"
        elif ratio < 1.0 / tolerance:
            status = "improvement"
        else:
            status = "ok"
        comparisons.append(Comparison(
            name=result["name"], status=status,
            baseline_min_s=entry["min_s"], current_min_s=result["min_s"],
            ratio=ratio,
        ))
    for name in baseline_by_name:
        comparisons.append(Comparison(
            name=name, status="missing",
            baseline_min_s=baseline_by_name[name]["min_s"],
            current_min_s=None, ratio=None,
        ))
    return comparisons


def regressions(comparisons: list[Comparison]) -> list[Comparison]:
    """The comparisons that should fail the gate."""
    return [c for c in comparisons if c.status == "regression"]

__all__ = [
    "Comparison",
    "DEFAULT_TOLERANCE",
    "check_tolerance",
    "compare",
    "default_baseline_path",
    "load_baseline",
    "regressions",
    "same_machine",
    "write_results",
]
