"""Deviation cost functions and the total-cost decomposition (paper §3.1).

The paper postulates a cost per unit of deviation (imprecision) and a
cost ``C`` per update message, both in the same units.  Between two
consecutive updates at ``t1`` and ``t2`` the total cost is

    COST(t1, t2) = C + COST_d(t1, t2)                       (Equation 2)

where ``COST_d`` is a *deviation cost function*.  The paper analyses the
**uniform** deviation cost function

    COST_d(t1, t2) = integral from t1 to t2 of d(t) dt       (Equation 1)

(one query per time unit, one cost unit per mile of reported deviation)
and mentions the **step** function (zero below a tolerance ``h``, one
above) as an alternative.  Both are implemented here; all three paper
policies use the uniform function.

Each cost function also answers §3.1's decision integral — what not
updating now is predicted to cost over a horizon — for a delayed-linear
estimator: in closed form where one exists, by quadrature otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.estimators import DelayedLinearEstimator
from repro.errors import PolicyError


class DeviationCostFunction(ABC):
    """Maps a deviation signal to an imprecision cost."""

    #: Short identifier used in policy descriptions and reports.
    name: str = "abstract"

    @abstractmethod
    def rate(self, deviation: float) -> float:
        """Instantaneous cost per time unit at the given deviation."""

    def integrate(self, deviations: Sequence[float], dt: float) -> float:
        """Cost of a sampled deviation signal over time.

        ``deviations[i]`` is the deviation during the ``i``-th tick of
        length ``dt``; the integral is the rectangle-rule sum, which is
        exact for the piecewise-constant signals the simulator produces.
        """
        if dt <= 0:
            raise PolicyError(f"dt must be positive, got {dt}")
        return sum(self.rate(d) for d in deviations) * dt

    def horizon_difference(self, k: float, estimator: DelayedLinearEstimator,
                           horizon: float, step: float) -> float:
        """``integral over [0, horizon] of rate(g(s) + k) - rate(g(s)) ds``.

        §3.1's predicted deviation cost of *not* updating now (current
        deviation ``k > 0``, fitted estimator ``g``) minus that of
        updating.  This default is a midpoint sum of about
        ``horizon / step`` terms, right for any ``rate``; the cost
        functions below override it with their closed forms and are
        tested against it.
        """
        steps = max(int(round(horizon / step)), 1)
        dt = horizon / steps
        difference = 0.0
        for i in range(steps):
            base = estimator((i + 0.5) * dt)
            difference += (self.rate(base + k) - self.rate(base)) * dt
        return difference

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformDeviationCost(DeviationCostFunction):
    """Equation 1: one cost unit per mile of deviation per time unit."""

    name = "uniform"

    def rate(self, deviation: float) -> float:
        if deviation < 0:
            raise PolicyError(f"deviation must be nonnegative, got {deviation}")
        return deviation

    def horizon_difference(self, k: float, estimator: DelayedLinearEstimator,
                           horizon: float, step: float) -> float:
        # The integrand is the constant k whatever the estimator.
        return k * horizon


class StepDeviationCost(DeviationCostFunction):
    """Zero penalty while the deviation stays below ``threshold``, else one.

    The paper's step deviation cost function: "a zero penalty for each
    time unit in which the deviation stays below some threshold h, and a
    penalty of one otherwise".
    """

    name = "step"

    def __init__(self, threshold: float) -> None:
        if not threshold >= 0:
            raise PolicyError(f"step threshold must be nonnegative, got {threshold}")
        self.threshold = threshold

    def rate(self, deviation: float) -> float:
        if deviation < 0:
            raise PolicyError(f"deviation must be nonnegative, got {deviation}")
        return 0.0 if deviation <= self.threshold else 1.0

    def horizon_difference(self, k: float, estimator: DelayedLinearEstimator,
                           horizon: float, step: float) -> float:
        # The integrand is the indicator of {s : g(s) <= h < g(s) + k};
        # g is nondecreasing, so that is the interval between the
        # crossing of h - k (from time 0 when k > h) and the crossing of h.
        h, a = self.threshold, estimator.slope
        if a <= 0:
            return horizon if k > h else 0.0
        enters = 0.0 if k > h else estimator.delay + (h - k) / a
        leaves = min(horizon, estimator.delay + h / a)
        return max(leaves - enters, 0.0)

    def __repr__(self) -> str:
        return f"StepDeviationCost(threshold={self.threshold})"


def total_cost(update_cost: float, num_updates: int,
               deviation_cost: float) -> float:
    """Equation 2 summed over a whole trip.

    ``update_cost`` is ``C``; ``num_updates`` counts position-update
    messages sent during the trip; ``deviation_cost`` is the integrated
    deviation cost over the trip.
    """
    if update_cost < 0:
        raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
    if num_updates < 0:
        raise PolicyError(f"update count must be nonnegative, got {num_updates}")
    if deviation_cost < 0:
        raise PolicyError(
            f"deviation cost must be nonnegative, got {deviation_cost}"
        )
    return update_cost * num_updates + deviation_cost


__all__ = [
    "DeviationCostFunction",
    "StepDeviationCost",
    "UniformDeviationCost",
    "total_cost",
]
