"""E18: robustness of the §3.3 bounds to GPS measurement noise.

Sweeps the sensor-error magnitude ``epsilon`` and counts, per run, the
ticks where the *actual* deviation escapes the DBMS-side bound — with
the naive (clean-model) bound and with the ``+2 epsilon`` inflation.
The inflated bound must stay sound at every noise level; the naive
bound starts leaking as ``epsilon`` grows.
"""

from __future__ import annotations

import random

from repro.core.policies import make_policy
from repro.experiments.tables import TableResult
from repro.sim.grid import TickGrid
from repro.sim.lanes import simulate_lanes
from repro.sim.noise import audit, noisy_grid, reading_draws
from repro.sim.speed_curves import standard_curve_set
from repro.sim.trip import Trip


def table_noise_robustness(epsilons: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1),
                           update_cost: float = 5.0,
                           policy_name: str = "ail",
                           num_curves: int = 5, duration: float = 30.0,
                           seed: int = 53,
                           dt: float = 1.0 / 30.0) -> TableResult:
    """Violation accounting per noise level, naive vs. inflated bounds.

    Each trip's readings are drawn once and scaled per ``epsilon``; the
    noisy grids run as lanes of one :func:`simulate_lanes` pass, and
    each run is audited twice.
    """
    rng = random.Random(seed)
    curves = standard_curve_set(rng, count=num_curves, duration=duration)
    cleans = [TickGrid.build(Trip.synthetic(c, route_id=f"noise-{i}"), dt)
              for i, c in enumerate(curves)]
    draws = [reading_draws(seed + i, clean) for i, clean in enumerate(cleans)]
    runs = simulate_lanes(
        [(noisy_grid(clean, epsilon, u), make_policy(policy_name, update_cost))
         for epsilon in epsilons for clean, u in zip(cleans, draws)],
        dt, record_series=True)
    rows: list[list[object]] = []
    for e, epsilon in enumerate(epsilons):
        naive_violations = inflated_violations = ticks = updates = 0
        for clean, run in zip(cleans, runs[e * num_curves:]):
            naive = audit(clean, run, epsilon, inflate_bounds=False)
            naive_violations += naive.violations
            inflated_violations += audit(clean, run, epsilon,
                                         inflate_bounds=True).violations
            ticks += naive.ticks
            updates += naive.num_updates
        rows.append(
            [
                epsilon,
                updates / num_curves,
                naive_violations,
                inflated_violations,
                naive_violations / ticks,
            ]
        )
    return TableResult(
        experiment_id="E18",
        title=(
            f"Bound soundness under GPS noise ({policy_name}, C={update_cost})"
        ),
        headers=["epsilon (mi)", "messages/trip", "naive violations",
                 "inflated violations", "naive violation rate"],
        rows=rows,
    )

__all__ = [
    "table_noise_robustness",
]
