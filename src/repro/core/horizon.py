"""The paper's general cost-comparison decision procedure (§3.1).

Before specialising to closed-form thresholds, §3.1 defines the update
decision generically: approximate the deviation by the fitted estimator
``g``; predict the future deviation as ``g(t)`` if an update is sent
now and ``g(t) + k`` if not; and send the update when the difference
between the predicted deviation-costs exceeds the update cost:

    integral over the horizon of  rate(g(s) + k) - rate(g(s)) ds  >=  C

:class:`HorizonCostPolicy` implements exactly that for *any* deviation
cost function — including the step function, for which no closed-form
threshold is derived in the paper.  The cost function evaluates the
integral (:meth:`DeviationCostFunction.horizon_difference`): exactly
for the uniform and step functions, by midpoint quadrature for any
other.  With the uniform cost function the integrand is constantly
``k``, so the rule collapses to ``k >= C / H`` for horizon ``H``; a
unit test pins that equivalence.

This is the extension point the closed-form dl/ail/cil policies are
special cases of (they effectively choose the horizon that minimises
steady-state cost per time unit instead of fixing it).
"""

from __future__ import annotations

from repro.core.cost import DeviationCostFunction
from repro.core.estimators import DelayedLinearEstimator
from repro.core.fitting import SimpleFitting
from repro.core.policies import register_policy
from repro.core.policy import OnboardState, UpdateDecision, UpdatePolicy
from repro.core.speed import CurrentSpeed, SpeedPredictor
from repro.errors import PolicyError


@register_policy
class HorizonCostPolicy(UpdatePolicy):
    """Generic cost-comparison policy over a fixed prediction horizon.

    Parameters: the horizon length in minutes, the deviation cost
    function (any :class:`DeviationCostFunction`), whether the fitted
    estimator keeps its delay, the speed predictor, and the integration
    step (used only by cost functions without a closed form).
    """

    name = "horizon"

    def __init__(self, update_cost: float,
                 horizon: float = 5.0,
                 use_delay: bool = False,
                 speed_predictor: SpeedPredictor | None = None,
                 cost_function: DeviationCostFunction | None = None,
                 integration_step: float = 1.0 / 60.0) -> None:
        super().__init__(update_cost, cost_function)
        if not 0 < horizon < float("inf"):
            raise PolicyError(f"horizon must be positive and finite, got {horizon}")
        if not 0 < integration_step <= horizon:
            raise PolicyError(
                f"integration step must be in (0, horizon], got "
                f"{integration_step}"
            )
        self.horizon = horizon
        self.fitting = SimpleFitting(use_delay=use_delay)
        self.speed_predictor = speed_predictor or CurrentSpeed()
        self.integration_step = integration_step

    def predicted_cost_difference(
            self, state: OnboardState,
            estimator: DelayedLinearEstimator | None = None) -> float:
        """Cost(no update) - Cost(update) over the horizon, ex message.

        Positive means skipping the update is predicted to cost more in
        imprecision; the update fires when this reaches ``C``.
        ``estimator`` is the fit of ``state`` when the caller already
        has it.
        """
        if state.deviation <= 0:
            return 0.0
        if estimator is None:
            estimator = self.fitting.fit(state)
        return self.cost_function.horizon_difference(
            state.deviation, estimator, self.horizon, self.integration_step
        )

    def decide(self, state: OnboardState) -> UpdateDecision:
        if state.deviation <= 0:
            return self._no_update(state)
        estimator = self.fitting.fit(state)
        difference = self.predicted_cost_difference(state, estimator)
        send = difference >= self.update_cost
        return UpdateDecision(
            send=send,
            speed_to_declare=(
                self.speed_predictor.predict(state)
                if send
                else state.declared_speed
            ),
            # For the uniform cost function the implied threshold is
            # C / H; report it for instrumentation parity.
            threshold=self.update_cost / self.horizon,
            fitted_slope=estimator.slope,
            fitted_delay=estimator.delay,
        )

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["horizon"] = self.horizon
        description["estimator"] = (
            "delayed-linear" if self.fitting.use_delay else "immediate-linear"
        )
        description["predicted_speed"] = self.speed_predictor.name
        return description


__all__ = [
    "HorizonCostPolicy",
]
