"""Baseline update policies the paper compares against or mentions.

* :class:`TraditionalPointPolicy` — the *traditional, non-temporal*
  method of the introduction: the DBMS stores a static point, so the
  reported position goes stale as soon as the object moves.  To honour
  a precision target the object must update whenever the distance from
  the stored point reaches the target.  The headline claim is that the
  temporal method needs only ~15 % of this baseline's messages.
* :class:`FixedThresholdPolicy` — the "alternative approach" of the
  conclusion: an a-priori deviation bound ``B``, updating whenever the
  deviation exceeds ``B``, with ``B`` chosen independently of the
  message cost (the paper's criticism of plain dead reckoning).
* :class:`PeriodicPolicy` — time-driven updating every ``period``
  minutes, the naive strawman for any tracking system.
"""

from __future__ import annotations

from repro.core.cost import DeviationCostFunction
from repro.core.policies import register_policy
from repro.core.policy import (
    THRESHOLD_TOLERANCE,
    OnboardState,
    UpdateDecision,
    UpdatePolicy,
)
from repro.core.speed import CurrentSpeed, SpeedPredictor
from repro.errors import PolicyError


@register_policy
class TraditionalPointPolicy(UpdatePolicy):
    """Non-temporal baseline: static point storage, distance-triggered.

    The declared speed is always zero (a traditional DBMS has no speed
    column — data is "constant unless explicitly modified"), so the
    database position stays where the last update put it and the
    deviation equals the distance travelled since that update.  The
    object updates whenever that distance reaches ``precision``.
    """

    name = "traditional"

    def __init__(self, update_cost: float, precision: float = 1.0,
                 cost_function: DeviationCostFunction | None = None) -> None:
        super().__init__(update_cost, cost_function)
        if not precision > 0:
            raise PolicyError(f"precision must be positive, got {precision}")
        self.precision = precision

    def decide(self, state: OnboardState) -> UpdateDecision:
        send = (
            state.distance_since_update
            >= self.precision * (1.0 - THRESHOLD_TOLERANCE)
        )
        return UpdateDecision(
            send=send,
            speed_to_declare=0.0,
            threshold=self.precision,
            fitted_slope=0.0,
            fitted_delay=0.0,
        )

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["precision"] = self.precision
        description["predicted_speed"] = "zero (static point storage)"
        return description


@register_policy
class FixedThresholdPolicy(UpdatePolicy):
    """A-priori dead reckoning: update when the deviation exceeds ``bound``.

    Unlike the cost-based policies, ``bound`` is fixed up front and does
    not adapt to the update cost or the observed deviation dynamics —
    exactly the approach the paper's conclusion argues against.  The
    declared speed comes from a configurable predictor (current speed by
    default, matching conventional dead reckoning).
    """

    name = "fixed-threshold"

    def __init__(self, update_cost: float, bound: float = 1.0,
                 speed_predictor: SpeedPredictor | None = None,
                 cost_function: DeviationCostFunction | None = None) -> None:
        super().__init__(update_cost, cost_function)
        if not bound > 0:
            raise PolicyError(f"bound must be positive, got {bound}")
        self.bound = bound
        self.speed_predictor = speed_predictor or CurrentSpeed()

    def decide(self, state: OnboardState) -> UpdateDecision:
        send = state.deviation >= self.bound * (1.0 - THRESHOLD_TOLERANCE)
        return UpdateDecision(
            send=send,
            speed_to_declare=(
                self.speed_predictor.predict(state)
                if send
                else state.declared_speed
            ),
            threshold=self.bound,
            fitted_slope=0.0,
            fitted_delay=0.0,
        )

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["bound"] = self.bound
        description["predicted_speed"] = self.speed_predictor.name
        return description


@register_policy
class PeriodicPolicy(UpdatePolicy):
    """Time-driven baseline: update every ``period`` minutes."""

    name = "periodic"

    def __init__(self, update_cost: float, period: float = 1.0,
                 speed_predictor: SpeedPredictor | None = None,
                 cost_function: DeviationCostFunction | None = None) -> None:
        super().__init__(update_cost, cost_function)
        if not period > 0:
            raise PolicyError(f"period must be positive, got {period}")
        self.period = period
        self.speed_predictor = speed_predictor or CurrentSpeed()

    def decide(self, state: OnboardState) -> UpdateDecision:
        send = state.elapsed >= self.period * (1.0 - THRESHOLD_TOLERANCE)
        return UpdateDecision(
            send=send,
            speed_to_declare=(
                self.speed_predictor.predict(state)
                if send
                else state.declared_speed
            ),
            threshold=float("inf"),
            fitted_slope=0.0,
            fitted_delay=0.0,
        )

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["period"] = self.period
        description["predicted_speed"] = self.speed_predictor.name
        return description


__all__ = [
    "FixedThresholdPolicy",
    "PeriodicPolicy",
    "TraditionalPointPolicy",
]
