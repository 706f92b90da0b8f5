"""Wall-clock benchmark of the vectorized simulation kernels.

Times the dl threshold-crossing sweep two ways on an identical fleet
of tick grids:

* **scalar fast path** — one ``PolicySimulation(GridTrip(g), ...,
  grid=g).run()`` per vehicle: the pre-vectorization hot loop,
* **vectorized batch** — ``VecTripBatch.from_grids`` packing the fleet
  into structure-of-arrays columns plus one ``simulate_batch`` call
  (packing time is charged to the vectorized leg).

and asserts (not eyeballs) the claims ``repro.vec`` makes:

1. every per-vehicle ``TripMetrics`` is *byte-identical* between the
   two legs — exact float equality, asserted in every mode,
2. one fused ``simulate_batch`` pass over six update costs yields,
   byte for byte, the metrics of six single-cost passes — asserted in
   every mode, with both legs timed, and
3. the vectorized leg beats the scalar fast path by >= 5x wall clock
   on the full 100k-vehicle fleet (skipped under ``--fast``, which
   exists for CI smoke where the fleet is too small for the kernels
   to amortise).

A fourth leg claims nothing and gates nothing: kernel against scalar
fast path, per lane, on small groups — the measurement behind the
dispatcher's ``_MIN_VEC_TRIPS`` (``repro/exec/executor.py``).  It prints
the smallest group from which the kernel stays ahead.

Results are written as JSON for artifact upload::

    python benchmarks/bench_vec_kernels.py                 # 100k fleet
    python benchmarks/bench_vec_kernels.py --fast          # CI smoke
    python benchmarks/bench_vec_kernels.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

from repro.bench import benchmark as register_benchmark
from repro.core.policies import make_policy
from repro.exec import GridTrip, TickGrid
from repro.experiments.sweep import SweepSpec
from repro.sim.engine import PolicySimulation
from repro.sim.speed_curves import CityCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch

MIN_SPEEDUP = 5.0
UPDATE_COST = 2.0
#: The cost axis of the fused case: the §3.4 sweep's six update costs.
SWEEP_COSTS = SweepSpec().update_costs
#: Vehicles of the fused case on the full run: the e2e sweep's trip count.
SWEEP_VEHICLES = 160
DURATION = 10.0
DT = 0.1

#: The lanes leg: trips per cost, cost-axis widths, and (minutes, dt)
#: grids — an hour at the sweep's tick and a fleet's ten minutes.
LANE_COUNTS = (1, 2, 4, 8, 16, 32, 64)
LANE_COSTS = (1, len(SWEEP_COSTS))
LANE_GRIDS = ((60.0, 1.0 / 60.0), (DURATION, DT))

FULL_VEHICLES = 100_000
FAST_VEHICLES = 256
NUM_UNIQUE = 64
FAST_UNIQUE = 16


def build_fleet(num_vehicles: int, num_unique: int,
                duration: float = DURATION, dt: float = DT) -> list[TickGrid]:
    """``num_vehicles`` tick grids cycled from ``num_unique`` trips.

    Real sweeps reuse grids across cells, so the fleet repeats a pool
    of unique trips; ``VecTripBatch.from_grids`` dedupes the packing
    by grid identity, which is exactly the case this measures.
    """
    base = [
        TickGrid.build(
            Trip.synthetic(CityCurve(duration, random.Random(i)),
                           route_id=f"vec-bench-{i}"),
            dt,
        )
        for i in range(num_unique)
    ]
    return [base[i % num_unique] for i in range(num_vehicles)]


def scalar_metrics(grids: list[TickGrid]) -> list:
    policy = make_policy("dl", UPDATE_COST)
    return [
        PolicySimulation(GridTrip(grid), policy, dt=DT, grid=grid)
        .run().metrics
        for grid in grids
    ]


def vectorized_metrics(grids: list[TickGrid]) -> list:
    policy = make_policy("dl", UPDATE_COST)
    batch = VecTripBatch.from_grids(grids)
    results = simulate_batch(batch, policy, collect_events=False)
    return [result.metrics for result in results]


def fused_metrics(batch: VecTripBatch) -> list:
    """All of :data:`SWEEP_COSTS` in one kernel pass (cost-major)."""
    policies = [make_policy("dl", cost) for cost in SWEEP_COSTS]
    return [result.metrics for result in
            simulate_batch(batch, policies, collect_events=False)]


def per_cost_metrics(batch: VecTripBatch) -> list:
    """The same lanes as six single-cost passes over the same batch."""
    return [
        result.metrics
        for cost in SWEEP_COSTS
        for result in simulate_batch(batch, make_policy("dl", cost),
                                     collect_events=False)
    ]


@register_benchmark("vec.batch_pack", group="vec")
def harness_batch_pack():
    """VecTripBatch.from_grids packing a 256-vehicle fleet."""
    grids = build_fleet(FAST_VEHICLES, FAST_UNIQUE)
    return lambda: VecTripBatch.from_grids(grids)


@register_benchmark("vec.sim_batch", group="vec")
def harness_sim_batch():
    """Vectorized dl sweep (pack + simulate) on a 256-vehicle fleet."""
    grids = build_fleet(FAST_VEHICLES, FAST_UNIQUE)
    return lambda: vectorized_metrics(grids)


@register_benchmark("vec.sim_batch_costs", group="vec")
def harness_sim_batch_costs():
    """One fused pass over six update costs on the 256-vehicle fleet."""
    batch = VecTripBatch.from_grids(build_fleet(FAST_VEHICLES, FAST_UNIQUE))
    return lambda: fused_metrics(batch)


@register_benchmark("vec.sim_scalar", group="vec")
def harness_sim_scalar():
    """Scalar fast-path dl sweep on the same 256-vehicle fleet."""
    grids = build_fleet(FAST_VEHICLES, FAST_UNIQUE)
    return lambda: scalar_metrics(grids)


def timed(fn, repeat: int = 1):
    """Best-of-``repeat`` wall clock; returns (last result, min seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return result, best


def lanes_leg(fast: bool) -> list[dict]:
    """Per-lane milliseconds, kernel vs ``_run_fast``, on small groups.

    One row per (grid, cost count): ``kernel_ms`` / ``scalar_ms`` by
    group size, best of five, events collected (what a fleet asks
    for), packing charged to the kernel, and ``crossover`` — the
    smallest size from which the kernel is never slower again.
    """
    rows = []
    for duration, dt in LANE_GRIDS[1:] if fast else LANE_GRIDS:
        grids = build_fleet(max(LANE_COUNTS), max(LANE_COUNTS), duration, dt)
        for grid in grids:
            grid.scalars()  # boxed once per grid, not once per run
        for num_costs in LANE_COSTS:
            policies = [make_policy("dl", cost)
                        for cost in SWEEP_COSTS[:num_costs]]
            kernel_ms, scalar_ms, crossover = {}, {}, None
            for n in LANE_COUNTS:
                group = grids[:n]
                vec, vec_seconds = timed(
                    lambda: simulate_batch(VecTripBatch.from_grids(group),
                                           policies), repeat=5)
                scalar, scalar_seconds = timed(
                    lambda: [PolicySimulation(GridTrip(grid), policy, dt=dt,
                                              grid=grid).run()
                             for policy in policies for grid in group],
                    repeat=5)
                if vec != scalar:
                    raise AssertionError(
                        f"kernel and scalar results differ at n={n}")
                lanes = n * num_costs
                kernel_ms[n] = 1e3 * vec_seconds / lanes
                scalar_ms[n] = 1e3 * scalar_seconds / lanes
                if kernel_ms[n] > scalar_ms[n]:
                    crossover = None
                elif crossover is None:
                    crossover = n
            rows.append({
                "duration_minutes": duration,
                "dt_minutes": dt,
                "num_costs": num_costs,
                "kernel_ms_per_lane": kernel_ms,
                "scalar_ms_per_lane": scalar_ms,
                "crossover": crossover,
            })
    return rows


def run_benchmark(fast: bool = False) -> dict:
    num_vehicles = FAST_VEHICLES if fast else FULL_VEHICLES
    num_unique = FAST_UNIQUE if fast else NUM_UNIQUE
    grids = build_fleet(num_vehicles, num_unique)

    # The scalar leg dominates wall clock, so it runs once; the
    # vectorized leg is cheap enough for best-of-3 against timer noise.
    scalar, scalar_seconds = timed(lambda: scalar_metrics(grids))
    vec, vec_seconds = timed(lambda: vectorized_metrics(grids), repeat=3)

    identical = scalar == vec

    # The cost axis at the sweep's width: distinct trips, six costs.
    sweep_vehicles = FAST_UNIQUE if fast else SWEEP_VEHICLES
    batch = VecTripBatch.from_grids(build_fleet(sweep_vehicles,
                                                sweep_vehicles))
    per_cost, per_cost_seconds = timed(lambda: per_cost_metrics(batch),
                                       repeat=3)
    fused, fused_seconds = timed(lambda: fused_metrics(batch), repeat=3)
    return {
        "fleet": {
            "num_vehicles": num_vehicles,
            "num_unique_trips": num_unique,
            "duration_minutes": DURATION,
            "dt_minutes": DT,
            "policy": "dl",
            "update_cost": UPDATE_COST,
            "fast": fast,
        },
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": scalar_seconds / vec_seconds,
        "byte_identical": identical,
        "cost_axis": {
            "num_vehicles": sweep_vehicles,
            "update_costs": list(SWEEP_COSTS),
            "per_cost_seconds": per_cost_seconds,
            "fused_seconds": fused_seconds,
            "speedup": per_cost_seconds / fused_seconds,
            "byte_identical": fused == per_cost,
        },
        "lanes": lanes_leg(fast),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the vectorized simulation kernels."
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced fleet for CI smoke (equivalence "
                             "asserted, speedup recorded but not gated)")
    parser.add_argument("--output", default="BENCH_vec_kernels.json",
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_benchmark(fast=args.fast)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    fleet = report["fleet"]
    print(f"fleet            : {fleet['num_vehicles']} vehicles "
          f"({fleet['num_unique_trips']} unique trips, "
          f"{'fast' if args.fast else 'full'})")
    print(f"scalar fast path : {report['scalar_seconds']:.3f} s")
    print(f"vectorized batch : {report['vectorized_seconds']:.3f} s "
          f"({report['speedup']:.2f}x)")
    axis = report["cost_axis"]
    print(f"cost axis        : {len(axis['update_costs'])} costs x "
          f"{axis['num_vehicles']} vehicles, fused {axis['fused_seconds']:.3f}"
          f" s vs per-cost {axis['per_cost_seconds']:.3f} s "
          f"({axis['speedup']:.2f}x)")
    for row in report["lanes"]:
        print(f"lanes            : {row['duration_minutes']:g} min at dt "
              f"{row['dt_minutes']:.4f}, {row['num_costs']} cost(s), "
              "kernel/scalar ms per lane: " + "  ".join(
                  f"n={n} {row['kernel_ms_per_lane'][n]:.3f}/"
                  f"{row['scalar_ms_per_lane'][n]:.3f}"
                  for n in LANE_COUNTS)
              + f"  -> crossover {row['crossover']}")
    print(f"report written to: {args.output}")

    # Claim 1 — equivalence — is asserted in every mode.
    if not report["byte_identical"]:
        print("FAIL: vectorized metrics differ from the scalar fast path",
              file=sys.stderr)
        return 1
    if not axis["byte_identical"]:
        print("FAIL: the fused cost-axis pass differs from the "
              "single-cost passes", file=sys.stderr)
        return 1

    # Claim 3 — speed — only on the full fleet (small fleets cannot
    # amortise the packing, and CI boxes are noisy).
    if not args.fast and report["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: vectorized speedup {report['speedup']:.2f}x is "
              f"below the required {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    print("OK: metrics byte-identical"
          + ("" if args.fast else f", speedup >= {MIN_SPEEDUP}x"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
