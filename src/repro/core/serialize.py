"""Serialisation of policies and cost functions to plain dict specs.

The ``P.policy`` sub-attribute names the policy *including its
parameters* — the DBMS needs them to derive deviation bounds, and a
persisted database needs them to reconstruct the policy objects.  A
*spec* is a JSON-compatible dict with a ``name`` key plus the
constructor parameters; :func:`policy_to_spec` and
:func:`policy_from_spec` round-trip every built-in policy, and a spec
that does not decode raises :class:`~repro.errors.PolicyError`.
"""

from __future__ import annotations

from typing import Any

from repro.core.adaptive import AdaptivePolicy
from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.cost import (
    DeviationCostFunction,
    StepDeviationCost,
    UniformDeviationCost,
)
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.policy import UpdatePolicy
from repro.errors import PolicyError, SpecReader

#: Each policy by spec name: its class and the parameters its spec
#: carries beyond ``update_cost`` and ``cost_function``, in spec order
#: (numbers, except ``use_delay``).  Only the update cost parameterises
#: the paper's policies.
_POLICIES: dict[str, tuple[type, tuple[str, ...]]] = {
    "dl": (DelayedLinearPolicy, ()),
    "ail": (AverageImmediateLinearPolicy, ()),
    "cil": (CurrentImmediateLinearPolicy, ()),
    "traditional": (TraditionalPointPolicy, ("precision",)),
    "fixed-threshold": (FixedThresholdPolicy, ("bound",)),
    "periodic": (PeriodicPolicy, ("period",)),
    "adaptive": (AdaptivePolicy, ("volatility_threshold", "window_minutes",
                                  "hysteresis")),
    "horizon": (HorizonCostPolicy, ("horizon", "use_delay")),
}


def cost_function_to_spec(cost_function: DeviationCostFunction) -> dict[str, Any]:
    """A deviation cost function as a plain dict."""
    if isinstance(cost_function, StepDeviationCost):
        return {"name": "step", "threshold": cost_function.threshold}
    if isinstance(cost_function, UniformDeviationCost):
        return {"name": "uniform"}
    raise PolicyError(
        f"cannot serialise cost function {cost_function!r}"
    )


def cost_function_from_spec(spec: Any) -> DeviationCostFunction:
    """Rebuild a deviation cost function from its spec."""
    fields = SpecReader(spec, PolicyError, "cost function spec")
    name = fields.get("name", str)
    if name == "uniform":
        return UniformDeviationCost()
    if name == "step":
        return StepDeviationCost(threshold=float(fields.number("threshold")))
    raise PolicyError(f"unknown cost function spec {spec!r}")


def policy_to_spec(policy: UpdatePolicy) -> dict[str, Any]:
    """A policy instance as a plain dict (name + parameters)."""
    for constructor, parameters in _POLICIES.values():
        if isinstance(policy, constructor):
            break
    else:
        raise PolicyError(f"cannot serialise policy {policy!r}")
    spec: dict[str, Any] = {
        "name": policy.name,
        "update_cost": policy.update_cost,
        "cost_function": cost_function_to_spec(policy.cost_function),
    }
    for key in parameters:
        spec[key] = (policy.fitting.use_delay if key == "use_delay"
                     else getattr(policy, key))
    return spec


def policy_from_spec(spec: Any) -> UpdatePolicy:
    """Rebuild a policy instance from its spec."""
    fields = SpecReader(spec, PolicyError, "policy spec")
    name = fields.get("name", str)
    if name not in _POLICIES:
        raise PolicyError(f"unknown policy spec name {name!r}")
    constructor, parameters = _POLICIES[name]
    unknown = set(spec) - {"name", "update_cost", "cost_function",
                           *parameters}
    if unknown:
        raise fields.fail(f"unknown field(s) {sorted(unknown)} for {name!r}")
    return constructor(
        float(fields.number("update_cost")),
        cost_function=cost_function_from_spec(
            fields.get("cost_function", dict, {"name": "uniform"})),
        **{key: fields.get(key, bool) if key == "use_delay"
           else fields.number(key)
           for key in parameters if key in spec},
    )


__all__ = [
    "cost_function_from_spec",
    "cost_function_to_spec",
    "policy_from_spec",
    "policy_to_spec",
]
