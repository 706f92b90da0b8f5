"""Run every experiment and print the full report.

Usage::

    python -m repro.experiments.runner            # full report
    python -m repro.experiments.runner --fast     # reduced sizes

The output is the text the benchmarks assert on and the source of the
numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.experiments.figures import (
    figure_bound_shapes,
    figure_messages,
    figure_total_cost,
    figure_uncertainty,
    run_standard_sweep,
)
from repro.experiments.optimality import table_online_vs_offline
from repro.experiments.robustness import table_noise_robustness
from repro.experiments.index_tuning import table_slab_tuning
from repro.experiments.extensions import (
    table_adaptive_policy,
    table_horizon_policy,
    table_route_change,
    table_xy_vs_route,
)
from repro.experiments.indexing import (
    experiment_index_maintenance,
    experiment_index_sublinearity,
    experiment_may_must_correctness,
)
from repro.experiments.sharding import table_sharding
from repro.experiments.sweep import SweepSpec
from repro.experiments.tables import (
    example1_threshold_trace,
    table_delay_ablation,
    table_example1,
    table_predictor_ablation,
    table_threshold_algebra,
    table_update_savings,
)


def fast_spec() -> SweepSpec:
    """A reduced sweep for quick runs and CI."""
    return SweepSpec(
        update_costs=(1.0, 5.0, 20.0),
        num_curves=6,
        duration=30.0,
        dt=1.0 / 30.0,
    )


def run_all(fast: bool = False, out: TextIO | None = None,
            shards: int = 4) -> None:
    """Execute E1–E20 and write the report to ``out`` (default stdout).

    ``out`` defaults to *the current* ``sys.stdout`` at call time, so
    stream redirection (e.g. under test capture) behaves as expected.
    ``shards`` sets the shard budget for E20's candidate plans.
    """
    if out is None:
        out = sys.stdout

    def emit(text: str = "") -> None:
        print(text, file=out)

    emit("Reproduction report: Wolfson et al., ICDE 1998")
    emit("=" * 60)
    emit()

    spec = fast_spec() if fast else SweepSpec()
    sweep = run_standard_sweep(spec)
    for figure in (
        figure_messages(sweep),
        figure_total_cost(sweep),
        figure_uncertainty(sweep),
    ):
        emit(f"[{figure.experiment_id}]")
        emit(figure.render())
        emit()

    savings = table_update_savings(
        num_curves=spec.num_curves, duration=spec.duration, dt=spec.dt,
    )
    emit(f"[{savings.experiment_id}]")
    emit(savings.render())
    emit()

    example1 = table_example1()
    emit(f"[{example1.experiment_id}]")
    emit(example1.render())
    minutes_after_stop = example1_threshold_trace()
    emit(
        "Simulated Example 1 trace: first dl update "
        f"{minutes_after_stop:.2f} minutes after the stop "
        "(paper: ~1.74 min = 1 min 44 s)"
    )
    emit()

    shapes = figure_bound_shapes()
    emit(f"[{shapes.experiment_id}]")
    emit(shapes.render())
    emit()

    algebra = table_threshold_algebra()
    emit(f"[{algebra.experiment_id}]")
    emit(algebra.render())
    emit()

    predictor = table_predictor_ablation(
        num_curves=4 if fast else 8, duration=spec.duration, dt=spec.dt,
    )
    emit(f"[{predictor.experiment_id}]")
    emit(predictor.render())
    emit()

    delay = table_delay_ablation(
        num_curves=4 if fast else 8, duration=spec.duration, dt=spec.dt,
    )
    emit(f"[{delay.experiment_id}]")
    emit(delay.render())
    emit()

    sizes = (50, 200) if fast else (100, 400, 1600)
    sublinear = experiment_index_sublinearity(fleet_sizes=sizes)
    emit(f"[{sublinear.experiment_id}]")
    emit(sublinear.render())
    emit()

    correctness = experiment_may_must_correctness(
        num_objects=60 if fast else 150,
        num_queries=15 if fast else 40,
    )
    emit(f"[{correctness.experiment_id}]")
    emit(correctness.render())
    emit()

    maintenance = experiment_index_maintenance(
        num_objects=60 if fast else 200
    )
    emit(f"[{maintenance.experiment_id}]")
    emit(maintenance.render())
    emit()

    extension_tables = [
        table_horizon_policy(
            num_curves=3 if fast else 6, duration=spec.duration, dt=spec.dt
        ),
        table_adaptive_policy(
            num_trips=3 if fast else 6, duration=spec.duration, dt=spec.dt
        ),
        table_xy_vs_route(dt=spec.dt),
        table_route_change(),
    ]
    for extension in extension_tables:
        emit(f"[{extension.experiment_id}]")
        emit(extension.render())
        emit()

    optimality = table_online_vs_offline(
        num_curves=3 if fast else 8, duration=spec.duration,
        policy_dt=spec.dt, offline_dt=0.5 if fast else 0.25,
    )
    emit(f"[{optimality.experiment_id}]")
    emit(optimality.render())
    emit()

    robustness = table_noise_robustness(
        num_curves=3 if fast else 5, duration=spec.duration, dt=spec.dt,
    )
    emit(f"[{robustness.experiment_id}]")
    emit(robustness.render(precision=4))
    emit()

    tuning = table_slab_tuning(
        num_objects=60 if fast else 150,
        num_queries=10 if fast else 20,
    )
    emit(f"[{tuning.experiment_id}]")
    emit(tuning.render())
    emit()

    sharding = table_sharding(
        num_shards=shards,
        num_objects=12 if fast else 24,
        num_updates=8 if fast else 12,
        num_queries=60 if fast else 160,
    )
    emit(f"[{sharding.experiment_id}]")
    emit(sharding.render())
    emit()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the full reproduction report."
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="reduced sweep sizes for a quick run",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="run under a live metrics registry and write its JSONL "
             "snapshot to this path (machine-readable run telemetry)",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count of E20's candidate plans",
    )
    args = parser.parse_args(argv)
    if args.metrics_out is not None:
        from repro.obs import use_registry, write_jsonl

        with use_registry() as registry:
            run_all(fast=args.fast, shards=args.shards)
        write_jsonl(registry, args.metrics_out)
    else:
        run_all(fast=args.fast, shards=args.shards)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

__all__ = [
    "fast_spec",
    "main",
    "run_all",
]
