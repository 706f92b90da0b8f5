"""Wall-clock benchmark of the parallel execution layer.

Times the full §3.4 sweep grid three ways on identical inputs:

* **legacy serial** — the pre-executor loop: one ``simulate_trip`` per
  (policy, cost, trip) cell, each building its own tick grid and each
  a kernel batch of one — the independent per-cell check,
* **executor serial** — ``SweepExecutor(jobs=1)``: shared tick grids
  and one fused kernel pass per policy family,
* **executor parallel** — ``SweepExecutor(jobs=N)``: the same cells
  fanned over a process pool.

and asserts (not eyeballs) the two claims the execution layer makes:

1. all three produce *byte-identical* ``SweepResult`` cells, and
2. the executor beats the legacy loop by >= 2x wall clock on the full
   grid (skipped under ``--fast``, which exists for CI smoke where the
   grid is too small for stable timing).

Results (timings, speedup, tick-grid cache hit rate) are written as
JSON for artifact upload::

    python benchmarks/bench_parallel_sweep.py                 # full grid
    python benchmarks/bench_parallel_sweep.py --fast          # CI smoke
    python benchmarks/bench_parallel_sweep.py --jobs 8 --output out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.core.policies import make_policy
from repro.exec import SweepExecutor
from repro.experiments.sweep import SweepSpec, build_curves
from repro.sim.engine import simulate_trip
from repro.sim.metrics import aggregate_metrics
from repro.sim.trip import Trip

MIN_SPEEDUP = 2.0


def fast_spec() -> SweepSpec:
    return SweepSpec(update_costs=(1.0, 5.0, 20.0), num_curves=4,
                     duration=15.0, dt=1.0 / 30.0)


def legacy_serial_sweep(spec: SweepSpec):
    """The pre-executor loop: no shared grids, no cache, spec order."""
    curves = build_curves(spec)
    trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
             for i, curve in enumerate(curves)]
    cells = {}
    for policy_name in spec.policy_names:
        by_cost = {}
        for cost in spec.update_costs:
            metrics = [
                simulate_trip(
                    trip,
                    make_policy(policy_name, cost,
                                **spec.policy_kwargs.get(policy_name, {})),
                    dt=spec.dt,
                ).metrics
                for trip in trips
            ]
            by_cost[cost] = aggregate_metrics(metrics)
        cells[policy_name] = by_cost
    return cells


def timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def run_benchmark(fast: bool = False, jobs: int = 4) -> dict:
    spec = fast_spec() if fast else SweepSpec()
    num_cells = (len(spec.policy_names) * len(spec.update_costs)
                 * spec.num_curves)

    legacy_cells, legacy_seconds = timed(lambda: legacy_serial_sweep(spec))

    serial_executor = SweepExecutor(jobs=1)
    serial_result, serial_seconds = timed(lambda: serial_executor.run(spec))

    parallel_executor = SweepExecutor(jobs=jobs)
    parallel_result, parallel_seconds = timed(
        lambda: parallel_executor.run(spec)
    )

    identical_serial = serial_result.cells == legacy_cells
    identical_parallel = parallel_result.cells == legacy_cells

    report = {
        "spec": {
            "policies": list(spec.policy_names),
            "update_costs": list(spec.update_costs),
            "num_curves": spec.num_curves,
            "duration_minutes": spec.duration,
            "dt_minutes": spec.dt,
            "num_cells": num_cells,
            "fast": fast,
        },
        "jobs": jobs,
        "legacy_serial_seconds": legacy_seconds,
        "executor_serial_seconds": serial_seconds,
        "executor_parallel_seconds": parallel_seconds,
        "speedup_serial_vs_legacy": legacy_seconds / serial_seconds,
        "speedup_parallel_vs_legacy": legacy_seconds / parallel_seconds,
        "byte_identical_serial": identical_serial,
        "byte_identical_parallel": identical_parallel,
        "serial_cache": serial_executor.cache.stats(),
        "parallel_cache": parallel_executor.cache.stats(),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the parallel sweep executor."
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced grid for CI smoke (correctness "
                             "asserted, speedup recorded but not gated)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel leg")
    parser.add_argument("--output", default="BENCH_parallel.json",
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_benchmark(fast=args.fast, jobs=args.jobs)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"grid              : {report['spec']['num_cells']} cells "
          f"({'fast' if args.fast else 'full'})")
    print(f"legacy serial     : {report['legacy_serial_seconds']:.3f} s")
    print(f"executor (jobs=1) : {report['executor_serial_seconds']:.3f} s "
          f"({report['speedup_serial_vs_legacy']:.2f}x)")
    print(f"executor (jobs={args.jobs}) : "
          f"{report['executor_parallel_seconds']:.3f} s "
          f"({report['speedup_parallel_vs_legacy']:.2f}x)")
    print(f"cache hit rate    : {report['serial_cache']['hit_rate']:.3f}")
    print(f"report written to : {args.output}")

    # Claim 1 — correctness — is asserted in every mode.
    if not report["byte_identical_serial"]:
        print("FAIL: executor serial result differs from legacy loop",
              file=sys.stderr)
        return 1
    if not report["byte_identical_parallel"]:
        print("FAIL: executor parallel result differs from legacy loop",
              file=sys.stderr)
        return 1

    # Claim 2 — speed — only on the full grid (the fast grid is too
    # small for pool startup to amortise, and CI boxes are noisy).
    if not args.fast:
        best = max(report["speedup_serial_vs_legacy"],
                   report["speedup_parallel_vs_legacy"])
        if best < MIN_SPEEDUP:
            print(f"FAIL: best executor speedup {best:.2f}x is below "
                  f"the required {MIN_SPEEDUP}x", file=sys.stderr)
            return 1
    print("OK: results byte-identical"
          + ("" if args.fast else f", speedup >= {MIN_SPEEDUP}x"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
