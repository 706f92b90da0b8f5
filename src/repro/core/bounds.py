"""DBMS-side deviation bounds — Propositions 2, 3, 4 and Corollary 1 (§3.3).

The DBMS cannot know the actual position of a moving object, but when
it knows the object's update policy it can bound the deviation using
only update-visible quantities: the declared speed ``v`` (``P.speed``),
the update cost ``C``, the object's maximum speed ``V``, and the time
``t`` since the last update.

For the **delayed-linear** policy:

* Proposition 2 (slow):  ``k <= min(sqrt(2 v C),        v t)``
* Proposition 3 (fast):  ``k <= min(sqrt(2 (V-v) C),    (V-v) t)``
* Corollary 1 (total):   ``k <= min(sqrt(2 D C),        D t)`` with
  ``D = max(v, V - v)`` — rises, then stays flat.

For the **immediate-linear** policies (ail and cil):

* Proposition 4: slow ``<= min(2C/t, v t)``, fast ``<= min(2C/t,
  (V-v) t)``, total ``<= min(2C/t, D t)`` — rises, peaks at
  ``t = sqrt(2C/D)``, then *decreases*: the paper's "surprising
  positive result".

Bounds for the baseline policies follow the same pattern from their
fixed thresholds (or, for the periodic policy, from physics alone).

The slow/fast split matters beyond tighter totals: the o-plane of §4
uses ``BS(t)`` and ``BF(t)`` separately to build the lower and upper
boundary lines ``l(t) = vt - BS(t)`` and ``u(t) = vt + BF(t)``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.policy import UpdatePolicy
from repro.errors import PolicyError

BoundFunction = Callable[[float], float]


def _check_speeds(declared_speed: float, max_speed: float) -> None:
    if declared_speed < 0:
        raise PolicyError(
            f"declared speed must be nonnegative, got {declared_speed}"
        )
    if max_speed < 0:
        raise PolicyError(f"max speed must be nonnegative, got {max_speed}")


def _check_elapsed(t: float) -> None:
    if t < 0:
        raise PolicyError(f"elapsed time must be nonnegative, got {t}")


class DeviationBounds:
    """Slow/fast/total deviation bounds as functions of elapsed time.

    ``slow(t)`` bounds how far the actual position can trail the
    database position ``t`` time units after the last update; ``fast(t)``
    bounds how far it can lead; ``total(t)`` bounds the deviation
    regardless of direction and equals ``max(slow, fast)``.
    ``ceiling(e)``, where a family has one, is no smaller than the
    computed ``slow(t)`` at any ``t >= e`` (the o-plane's route-end screen).
    """

    __slots__ = ("_slow", "_fast", "policy_name", "ceiling")

    def __init__(self, slow: BoundFunction, fast: BoundFunction,
                 policy_name: str = "custom",
                 ceiling: BoundFunction | None = None) -> None:
        self._slow = slow
        self._fast = fast
        self.policy_name = policy_name
        self.ceiling = ceiling

    def slow(self, t: float) -> float:
        """Bound on the slow deviation at elapsed time ``t``."""
        _check_elapsed(t)
        return self._slow(t)

    def fast(self, t: float) -> float:
        """Bound on the fast deviation at elapsed time ``t``."""
        _check_elapsed(t)
        return self._fast(t)

    def sample(self, times: Sequence[float]) -> tuple[list[float], list[float]]:
        """``[slow(t) ...]`` and ``[fast(t) ...]`` over ``times``, with
        one nonnegativity check for them all."""
        _check_elapsed(min(times, default=0.0))
        slow, fast = self._slow, self._fast
        return [slow(t) for t in times], [fast(t) for t in times]

    def total(self, t: float) -> float:
        """Bound on the deviation at elapsed time ``t`` (either direction)."""
        _check_elapsed(t)
        return max(self._slow(t), self._fast(t))

    def __repr__(self) -> str:
        return f"DeviationBounds(policy={self.policy_name!r})"


def delayed_linear_bounds(declared_speed: float, max_speed: float,
                          update_cost: float) -> DeviationBounds:
    """Bounds for the dl policy (Propositions 2–3, Corollary 1)."""
    _check_speeds(declared_speed, max_speed)
    if update_cost < 0:
        raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
    v = declared_speed
    gap = max(max_speed - declared_speed, 0.0)

    plateau = math.sqrt(2.0 * v * update_cost)

    def slow(t: float) -> float:
        return min(plateau, v * t)

    def fast(t: float) -> float:
        return min(math.sqrt(2.0 * gap * update_cost), gap * t)

    return DeviationBounds(slow, fast, policy_name="dl",
                           ceiling=lambda e: plateau)


def immediate_linear_bounds(declared_speed: float, max_speed: float,
                            update_cost: float) -> DeviationBounds:
    """Bounds for the ail/cil policies (Proposition 4).

    At ``t = 0`` both bounds are zero (the update just reported the
    exact position); for ``t > 0`` they are capped by ``2C/t``, which
    eventually *decreases* with time.
    """
    _check_speeds(declared_speed, max_speed)
    if update_cost < 0:
        raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
    v = declared_speed
    gap = max(max_speed - declared_speed, 0.0)

    def threshold_cap(t: float) -> float:
        return float("inf") if t <= 0 else 2.0 * update_cost / t

    def slow(t: float) -> float:
        return min(threshold_cap(t), v * t)

    def fast(t: float) -> float:
        return min(threshold_cap(t), gap * t)

    # Parked (v = 0), slow(t) = min(2C/t, 0 t) = 0 at every t.
    return DeviationBounds(slow, fast, policy_name="immediate",
                           ceiling=threshold_cap if v else lambda e: 0.0)


def fixed_threshold_bounds(declared_speed: float, max_speed: float,
                           bound: float) -> DeviationBounds:
    """Bounds for the a-priori fixed-threshold (dead-reckoning) policy.

    The deviation can never exceed the trigger ``bound`` (an update
    would have fired), nor what physics allows.
    """
    _check_speeds(declared_speed, max_speed)
    if bound <= 0:
        raise PolicyError(f"bound must be positive, got {bound}")
    v = declared_speed
    gap = max(max_speed - declared_speed, 0.0)

    def slow(t: float) -> float:
        return min(bound, v * t)

    def fast(t: float) -> float:
        return min(bound, gap * t)

    return DeviationBounds(slow, fast, policy_name="fixed-threshold",
                           ceiling=lambda e: bound)


def traditional_bounds(max_speed: float, precision: float) -> DeviationBounds:
    """Bounds for the traditional static-point baseline.

    The stored position never moves and the declared speed is zero, so
    the object can only be *ahead* of it — by at most the precision
    trigger, or what its maximum speed allows.
    """
    if max_speed < 0:
        raise PolicyError(f"max speed must be nonnegative, got {max_speed}")
    if precision <= 0:
        raise PolicyError(f"precision must be positive, got {precision}")

    def slow(t: float) -> float:
        return 0.0

    def fast(t: float) -> float:
        return min(precision, max_speed * t)

    return DeviationBounds(slow, fast, policy_name="traditional",
                           ceiling=slow)


def periodic_bounds(declared_speed: float, max_speed: float) -> DeviationBounds:
    """Bounds for the periodic policy: physics only.

    A time-driven policy places no cap on the deviation between
    updates, so only the speed envelope constrains it.
    """
    _check_speeds(declared_speed, max_speed)
    v = declared_speed
    gap = max(max_speed - declared_speed, 0.0)
    return DeviationBounds(
        lambda t: v * t, lambda t: gap * t, policy_name="periodic"
    )


def horizon_cost_bounds(declared_speed: float, max_speed: float,
                        update_cost: float, horizon: float) -> DeviationBounds:
    """Bounds for :class:`~repro.core.horizon.HorizonCostPolicy` with the
    uniform cost function.

    Under uniform cost the horizon rule collapses to "update when
    ``k >= C / H``", so the deviation is capped at that trigger (plus
    physics), exactly like a fixed-threshold policy with bound C/H.
    """
    _check_speeds(declared_speed, max_speed)
    if update_cost < 0:
        raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
    if not 0 < horizon < math.inf:
        raise PolicyError(f"horizon must be positive and finite, got {horizon}")
    trigger = update_cost / horizon
    if trigger <= 0:
        # Free updates: the deviation is pinned to zero.
        return DeviationBounds(lambda t: 0.0, lambda t: 0.0,
                               policy_name="horizon", ceiling=lambda e: 0.0)
    bounds = fixed_threshold_bounds(declared_speed, max_speed, trigger)
    return DeviationBounds(bounds.slow, bounds.fast, policy_name="horizon",
                           ceiling=bounds.ceiling)


def bounds_for_policy(policy: UpdatePolicy, declared_speed: float,
                      max_speed: float) -> DeviationBounds:
    """The DBMS-side bounds implied by a policy instance.

    This is the dispatch the DBMS performs from the ``P.policy``
    sub-attribute: knowing the policy (and its parameters, which the
    paper assumes are part of the policy designation) determines the
    bound functions.
    """
    if isinstance(policy, DelayedLinearPolicy):
        return delayed_linear_bounds(declared_speed, max_speed, policy.update_cost)
    if isinstance(policy, (AverageImmediateLinearPolicy,
                           CurrentImmediateLinearPolicy)):
        return immediate_linear_bounds(
            declared_speed, max_speed, policy.update_cost
        )
    if isinstance(policy, FixedThresholdPolicy):
        return fixed_threshold_bounds(declared_speed, max_speed, policy.bound)
    if isinstance(policy, TraditionalPointPolicy):
        return traditional_bounds(max_speed, policy.precision)
    if isinstance(policy, PeriodicPolicy):
        return periodic_bounds(declared_speed, max_speed)
    # Extension policies are imported lazily: repro.core.adaptive and
    # repro.core.horizon import this module's bound constructors, so a
    # top-level import here would be circular.
    from repro.core.adaptive import AdaptivePolicy
    from repro.core.horizon import HorizonCostPolicy

    if isinstance(policy, AdaptivePolicy):
        # Both delegates are immediate-linear policies with the same C,
        # so Proposition 4's bound applies regardless of the regime.
        return immediate_linear_bounds(
            declared_speed, max_speed, policy.update_cost
        )
    if isinstance(policy, HorizonCostPolicy):
        if policy.cost_function.name == "uniform":
            return horizon_cost_bounds(
                declared_speed, max_speed, policy.update_cost, policy.horizon
            )
        # Non-uniform cost functions place no usable cap on the
        # deviation between updates; only physics constrains it.
        return periodic_bounds(declared_speed, max_speed)
    raise PolicyError(
        f"no deviation bounds known for policy {policy.name!r}"
    )


def immediate_bound_peak(declared_speed: float, max_speed: float,
                         update_cost: float) -> tuple[float, float]:
    """Where Proposition 4's total bound peaks, and its peak value.

    The bound ``min(2C/t, D t)`` peaks where the branches cross:
    ``t* = sqrt(2C/D)``, with value ``sqrt(2 C D)``.  Returns
    ``(t*, peak)``; for ``D = 0`` the bound is identically zero and we
    return ``(0.0, 0.0)``.
    """
    _check_speeds(declared_speed, max_speed)
    if update_cost < 0:
        raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
    dominant = max(declared_speed, max(max_speed - declared_speed, 0.0))
    if dominant == 0 or update_cost == 0:
        return 0.0, 0.0
    t_star = math.sqrt(2.0 * update_cost / dominant)
    return t_star, math.sqrt(2.0 * update_cost * dominant)


__all__ = [
    "BoundFunction",
    "DeviationBounds",
    "bounds_for_policy",
    "delayed_linear_bounds",
    "fixed_threshold_bounds",
    "horizon_cost_bounds",
    "immediate_bound_peak",
    "immediate_linear_bounds",
    "periodic_bounds",
    "traditional_bounds",
]
