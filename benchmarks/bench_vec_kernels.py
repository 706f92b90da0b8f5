"""Wall-clock benchmark of the vectorized simulation kernel.

Times ``VecTripBatch.from_grids`` packing a fleet of tick grids into
structure-of-arrays columns plus one ``simulate_batch`` call over it
(the dl threshold-crossing sweep; packing time is charged to the leg),
and asserts (not eyeballs) the claims ``repro.vec`` makes:

1. every per-vehicle ``TripMetrics`` is *byte-identical* to the
   reference tick loop's — ``PolicySimulation._run_generic`` through
   ``tests/oracle/policy_reference.py``, compared on ``repr`` over a
   sample of at most :data:`REFERENCE_SAMPLE` vehicles spread across
   the fleet (the reference costs ~1 ms per vehicle) — and
2. one fused ``simulate_batch`` pass over six update costs yields,
   byte for byte, the metrics of six single-cost passes, with both
   legs timed, and
3. one sample lane of every family beyond dl/ail/cil (the baselines,
   the uniform-cost horizon rule, a step-cost lane) returns the
   reference loop's ``TripResult`` — metrics, events and series — on
   ``repr``.

All three are asserted in every mode; ``--fast`` only shrinks the fleet for
CI smoke.  Nothing is gated on speed: there is no second loop in
``src/`` to race the kernel against, and the end-to-end ledger
(``benchmarks/e2e``) is where a slower kernel shows.

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
from pathlib import Path
from time import perf_counter

from repro.core.cost import StepDeviationCost
from repro.core.policies import make_policy
from repro.exec import TickGrid
from repro.experiments.sweep import SweepSpec
from repro.sim.speed_curves import CityCurve
from repro.sim.trip import Trip
from repro.vec.batch import VecTripBatch
from repro.vec.engine import simulate_batch

UPDATE_COST = 2.0
#: Most vehicles the reference loop is run on for claim 1.
REFERENCE_SAMPLE = 200
#: The cost axis of the fused case: the §3.4 sweep's six update costs.
SWEEP_COSTS = SweepSpec().update_costs
#: Vehicles of the fused case on the full run: the e2e sweep's trip count.
SWEEP_VEHICLES = 160
DURATION = 10.0
DT = 0.1

#: Claim 3's lanes: ``make_policy`` name and keywords.
FAMILY_SAMPLES = (
    ("fixed-threshold", {"bound": 0.3}),
    ("traditional", {"precision": 0.5}),
    ("periodic", {"period": 1.0}),
    ("horizon", {"horizon": 5.0}),
    ("fixed-threshold", {"bound": 0.3, "cost_function": StepDeviationCost(0.1)}),
)

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


def oracle():
    """``reference_run`` (it lives with the tests, outside ``src``)."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests.oracle.policy_reference import reference_run

    return reference_run


def reference_metrics(grids: list[TickGrid]) -> list:
    """The oracle's metrics."""
    policy = make_policy("dl", UPDATE_COST)
    return [oracle()(grid, policy).metrics for grid in grids]


def families_identical(grid: TickGrid) -> bool:
    """Claim 3: each of :data:`FAMILY_SAMPLES` as a kernel lane of one
    trip, series recorded, against the reference loop."""
    batch = VecTripBatch.from_grids([grid])
    return all(
        repr(simulate_batch(batch, make_policy(name, UPDATE_COST, **kwargs),
                            record_series=True)[0])
        == repr(oracle()(grid, make_policy(name, UPDATE_COST, **kwargs),
                         record_series=True))
        for name, kwargs in FAMILY_SAMPLES)


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


def timed(fn, repeat: int = 1):
    """Best-of-``repeat`` wall clock; returns (last result, min seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return result, best


def run_benchmark(fast: bool = False) -> dict:
    num_vehicles = FAST_VEHICLES if fast else FULL_VEHICLES
    num_unique = FAST_UNIQUE if fast else NUM_UNIQUE
    grids = build_fleet(num_vehicles, num_unique)

    vec, vec_seconds = timed(lambda: vectorized_metrics(grids), repeat=3)
    # Claim 1 on a sample spread over the fleet's blocks; an odd stride
    # walks every trip of the (power-of-two) pool the fleet cycles.
    sample = range(0, num_vehicles, -(-num_vehicles // REFERENCE_SAMPLE) | 1)
    reference, reference_seconds = timed(
        lambda: reference_metrics([grids[i] for i in sample]))
    identical = repr([vec[i] for i in sample]) == repr(reference)

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
        "vectorized_seconds": vec_seconds,
        "reference_sample": len(sample),
        "reference_seconds": reference_seconds,
        "byte_identical": identical,
        "families_byte_identical": families_identical(grids[0]),
        "cost_axis": {
            "num_vehicles": sweep_vehicles,
            "update_costs": list(SWEEP_COSTS),
            "per_cost_seconds": per_cost_seconds,
            "fused_seconds": fused_seconds,
            "speedup": per_cost_seconds / fused_seconds,
            "byte_identical": fused == per_cost,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the vectorized simulation kernels."
    )
    parser.add_argument("--fast", action="store_true",
                        help="reduced fleet for CI smoke (both claims "
                             "still asserted)")
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
    print(f"vectorized batch : {report['vectorized_seconds']:.3f} s")
    print(f"reference loop   : {report['reference_seconds']:.3f} s for a "
          f"sample of {report['reference_sample']} vehicles")
    axis = report["cost_axis"]
    print(f"cost axis        : {len(axis['update_costs'])} costs x "
          f"{axis['num_vehicles']} vehicles, fused {axis['fused_seconds']:.3f}"
          f" s vs per-cost {axis['per_cost_seconds']:.3f} s "
          f"({axis['speedup']:.2f}x)")
    print(f"report written to: {args.output}")

    # Both claims are asserted in every mode.
    if not report["byte_identical"]:
        print("FAIL: vectorized metrics differ from the reference loop",
              file=sys.stderr)
        return 1
    if not report["families_byte_identical"]:
        print("FAIL: a family's sample lane differs from the reference "
              "loop", file=sys.stderr)
        return 1
    if not axis["byte_identical"]:
        print("FAIL: the fused cost-axis pass differs from the "
              "single-cost passes", file=sys.stderr)
        return 1
    print("OK: metrics byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
