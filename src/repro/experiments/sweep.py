"""Parameter sweeps over (policy, update cost) pairs.

The core loop of §3.4: "For each speed-curve, update policy, and update
cost C we execute a simulation run ... Then, for each policy, we
average the total cost over all the speed curves, and plot this average
as a function of the update cost C.  We do the same for the average
uncertainty and for the total number of messages."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.sim.metrics import AggregateMetrics
from repro.sim.speed_curves import SpeedCurve, standard_curve_set
from repro.units import DEFAULT_TICK_MINUTES


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: policies x update costs over a shared curve set."""

    policy_names: tuple[str, ...] = ("dl", "ail", "cil")
    update_costs: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    num_curves: int = 20
    duration: float = 60.0
    seed: int = 42
    dt: float = DEFAULT_TICK_MINUTES
    #: Extra keyword arguments per policy name (baselines take
    #: parameters; the paper's policies take none).
    policy_kwargs: dict[str, dict[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policy_names:
            raise ExperimentError("sweep needs at least one policy")
        if not self.update_costs:
            raise ExperimentError("sweep needs at least one update cost")
        if any(c < 0 for c in self.update_costs):
            raise ExperimentError("update costs must be nonnegative")
        if self.num_curves < 1:
            raise ExperimentError("sweep needs at least one curve")


@dataclass(frozen=True)
class SweepResult:
    """Aggregated metrics per (policy, update cost)."""

    spec: SweepSpec
    #: ``cells[policy_name][update_cost]``.
    cells: dict[str, dict[float, AggregateMetrics]]

    def metric_series(self, policy_name: str,
                      metric: str) -> list[tuple[float, float]]:
        """``(update_cost, metric_value)`` pairs for one policy."""
        try:
            by_cost = self.cells[policy_name]
        except KeyError:
            raise ExperimentError(
                f"sweep has no policy {policy_name!r}"
            ) from None
        pairs = []
        for cost in sorted(by_cost):
            aggregate = by_cost[cost]
            if not hasattr(aggregate, metric):
                raise ExperimentError(f"unknown metric {metric!r}")
            pairs.append((cost, float(getattr(aggregate, metric))))
        return pairs


def build_curves(spec: SweepSpec) -> list[SpeedCurve]:
    """The sweep's shared speed-curve set (seeded, so reproducible)."""
    rng = random.Random(spec.seed)
    return standard_curve_set(rng, count=spec.num_curves,
                              duration=spec.duration)


def run_policy_sweep(spec: SweepSpec,
                     curves: list[SpeedCurve] | None = None) -> SweepResult:
    """Run the full (policy x update-cost) grid over the curve set.

    Each policy sees the *same* trips (same curves, same routes), so
    differences in the aggregates are attributable to the policy alone.

    Execution is delegated to :class:`repro.exec.SweepExecutor`, which
    shares each trip's precomputed tick grid across every (policy, cost)
    cell.
    """
    from repro.exec import SweepExecutor

    return SweepExecutor().run(spec, curves=curves)

__all__ = [
    "SweepResult",
    "SweepSpec",
    "build_curves",
    "run_policy_sweep",
]
