"""Figure regeneration (experiments E1, E2, E3, E6).

The paper describes its omitted plots precisely: "a set of plots that
quantify, for each policy, the number of position-update messages,
total cost, and average uncertainty as a function of the message cost",
with the stated conclusion that "the ail policy is superior to the
other policies".  E1–E3 regenerate those three plot families from one
shared sweep; E6 plots the §3.3 bound shapes over time-since-update
(dl: rise then plateau; ail/cil: rise, peak, decay).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import delayed_linear_bounds, immediate_linear_bounds
from repro.errors import ExperimentError
from repro.experiments.sweep import SweepResult, SweepSpec, run_policy_sweep
from repro.reporting.series import Series, render_chart, render_series_table


@dataclass(frozen=True)
class Figure:
    """A regenerated paper figure: named series plus rendered text."""

    experiment_id: str
    title: str
    x_label: str
    series: list[Series]

    def render(self, chart: bool = True) -> str:
        """The figure as text: numbers table plus optional ASCII chart."""
        parts = [
            render_series_table(
                self.series, x_label=self.x_label, title=self.title
            )
        ]
        if chart:
            parts.append(render_chart(self.series, title=self.title))
        return "\n\n".join(parts)


def _sweep_figure(result: SweepResult, metric: str, experiment_id: str,
                  title: str) -> Figure:
    series = [
        Series.from_pairs(policy, result.metric_series(policy, metric))
        for policy in result.spec.policy_names
    ]
    return Figure(
        experiment_id=experiment_id,
        title=title,
        x_label="update cost C",
        series=series,
    )


def figure_messages(result: SweepResult) -> Figure:
    """E1: number of position-update messages vs. update cost C."""
    return _sweep_figure(
        result, "num_updates", "E1",
        "Messages per one-hour trip vs. update cost (per policy)",
    )


def figure_total_cost(result: SweepResult) -> Figure:
    """E2: total cost (Equation 2) vs. update cost C."""
    return _sweep_figure(
        result, "total_cost", "E2",
        "Total cost per trip vs. update cost (per policy)",
    )


def figure_uncertainty(result: SweepResult) -> Figure:
    """E3: average uncertainty vs. update cost C."""
    return _sweep_figure(
        result, "avg_uncertainty", "E3",
        "Average uncertainty (miles) vs. update cost (per policy)",
    )


def run_standard_sweep(spec: SweepSpec | None = None) -> SweepResult:
    """The shared sweep behind E1–E3 (one simulation pass, three figures)."""
    return run_policy_sweep(spec or SweepSpec())


def figure_bound_shapes(declared_speed: float = 1.0, max_speed: float = 1.5,
                        update_cost: float = 5.0, horizon: float = 15.0,
                        points: int = 60) -> Figure:
    """E6: deviation-bound shape over time since the last update.

    Shows the paper's qualitative contrast — the dl bound rises and
    then stays fixed, while the immediate-policy bound rises, peaks,
    and then *decreases* (the "surprising positive result" of §3.3).
    """
    if points < 2:
        raise ExperimentError(f"need at least 2 points, got {points}")
    dl = delayed_linear_bounds(declared_speed, max_speed, update_cost)
    imm = immediate_linear_bounds(declared_speed, max_speed, update_cost)
    xs = [horizon * i / (points - 1) for i in range(points)]
    return Figure(
        experiment_id="E6",
        title=(
            f"Deviation bound vs. time since update "
            f"(v={declared_speed}, V={max_speed}, C={update_cost})"
        ),
        x_label="minutes since update",
        series=[
            Series("dl bound", tuple(xs), tuple(dl.total(x) for x in xs)),
            Series("ail/cil bound", tuple(xs), tuple(imm.total(x) for x in xs)),
        ],
    )

__all__ = [
    "Figure",
    "figure_bound_shapes",
    "figure_messages",
    "figure_total_cost",
    "figure_uncertainty",
    "run_standard_sweep",
]
