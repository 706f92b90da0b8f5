"""Adaptive policy switching (paper §3.1's discussion, implemented).

"One reason to change the policy on an update is that the most
appropriate policy may be different for different speed patterns.  For
example, a policy for which the predicted speed is the current speed
may be appropriate for highway driving in non-rush hour (when the
speed fluctuates only mildly), whereas a policy for which the
predicted speed is the average speed may be appropriate for city
driving, where the speed fluctuates sharply.  The pattern of the
current speed is a parameter that may be entered by the user, and
changed during a trip."

:class:`AdaptivePolicy` automates that parameter: it watches the
recent speed signal, classifies the driving regime by the coefficient
of variation, and delegates each decision to the policy suited to the
regime — cil (current speed) in steady regimes, ail (average speed) in
volatile ones.  Because the policy designation is a position
sub-attribute, the DBMS learns the active delegate from each update
and bounds the deviation with the delegate's bound (both delegates are
immediate-linear, so the bound is the same ``min(2C/t, Dt)`` either
way — adaptivity costs the DBMS nothing).
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.cost import DeviationCostFunction
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    register_policy,
)
from repro.core.policy import OnboardState, UpdateDecision, UpdatePolicy
from repro.errors import PolicyError


@register_policy
class AdaptivePolicy(UpdatePolicy):
    """Switches between cil and ail by observed speed volatility.

    Speed samples from the last ``window_minutes`` of trip time feed a
    coefficient-of-variation estimate; above ``volatility_threshold``
    the regime is "volatile" (city-like) and ail decides, otherwise cil
    decides.  The window is time-based so the behaviour does not depend
    on the simulation tick.  Hysteresis (``hysteresis`` fraction of the
    threshold) prevents flapping at the boundary.
    """

    name = "adaptive"

    def __init__(self, update_cost: float,
                 volatility_threshold: float = 0.35,
                 window_minutes: float = 4.0,
                 hysteresis: float = 0.2,
                 cost_function: DeviationCostFunction | None = None) -> None:
        super().__init__(update_cost, cost_function)
        if not volatility_threshold > 0:
            raise PolicyError(
                f"volatility threshold must be positive, got "
                f"{volatility_threshold}"
            )
        if not window_minutes > 0:
            raise PolicyError(
                f"window_minutes must be positive, got {window_minutes}"
            )
        if not 0 <= hysteresis < 1:
            raise PolicyError(
                f"hysteresis must be in [0, 1), got {hysteresis}"
            )
        self.volatility_threshold = volatility_threshold
        self.window_minutes = window_minutes
        self.hysteresis = hysteresis
        self._samples: deque[tuple[float, float]] = deque()
        self._volatile = False
        self._steady = CurrentImmediateLinearPolicy(update_cost, cost_function)
        self._volatile_policy = AverageImmediateLinearPolicy(
            update_cost, cost_function
        )

    @property
    def active_delegate(self) -> UpdatePolicy:
        """The policy currently making decisions."""
        return self._volatile_policy if self._volatile else self._steady

    def observed_volatility(self) -> float:
        """Coefficient of variation of the windowed speed signal."""
        n = len(self._samples)
        if n < 2:
            return 0.0
        speeds = [speed for _, speed in self._samples]
        mean = sum(speeds) / n
        if mean <= 1e-12:
            # All-stopped windows are maximally "volatile" relative to
            # any declared speed: classify as volatile.
            return float("inf")
        variance = sum((s - mean) ** 2 for s in speeds) / n
        return math.sqrt(variance) / mean

    def _reclassify(self) -> None:
        cv = self.observed_volatility()
        up = self.volatility_threshold * (1.0 + self.hysteresis)
        down = self.volatility_threshold * (1.0 - self.hysteresis)
        if not self._volatile and cv > up:
            self._volatile = True
        elif self._volatile and cv < down:
            self._volatile = False

    def decide(self, state: OnboardState) -> UpdateDecision:
        now = state.trip_elapsed
        self._samples.append((now, state.current_speed))
        cutoff = now - self.window_minutes
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()
        self._reclassify()
        return self.active_delegate.decide(state)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["volatility_threshold"] = self.volatility_threshold
        description["window_minutes"] = self.window_minutes
        description["active_delegate"] = self.active_delegate.name
        return description


__all__ = [
    "AdaptivePolicy",
]
