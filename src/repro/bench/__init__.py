"""Unified benchmark harness: registry, timing, baselines, trajectory.

The measurement backbone every perf PR reports through.  The
``benchmarks/bench_*.py`` scripts register their measured sections
with :func:`benchmark`; ``repro bench run`` discovers them
(:func:`load_directory`), times them under a fixed warmup/repeat
discipline, emits schema-versioned JSON with an environment
fingerprint, and gates against the committed baselines under
``benchmarks/baselines/``.
"""

from repro.bench.baseline import (
    DEFAULT_TOLERANCE,
    Comparison,
    check_tolerance,
    compare,
    default_baseline_path,
    load_baseline,
    regressions,
    same_machine,
    write_results,
)
from repro.bench.harness import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchmarkCase,
    BenchmarkError,
    CaseResult,
    benchmark,
    clear_registry,
    environment_fingerprint,
    get_case,
    load_directory,
    registered_cases,
    run_benchmarks,
    run_case,
    validate_results,
)

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "BenchmarkCase",
    "BenchmarkError",
    "CaseResult",
    "benchmark",
    "clear_registry",
    "environment_fingerprint",
    "get_case",
    "load_directory",
    "registered_cases",
    "run_benchmarks",
    "run_case",
    "validate_results",
    "DEFAULT_TOLERANCE",
    "Comparison",
    "check_tolerance",
    "compare",
    "default_baseline_path",
    "load_baseline",
    "regressions",
    "same_machine",
    "write_results",
]
