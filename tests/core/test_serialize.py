"""Unit tests for repro.core.serialize (policy spec round-trips)."""

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.cost import StepDeviationCost, UniformDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.serialize import (
    cost_function_from_spec,
    cost_function_to_spec,
    policy_from_spec,
    policy_to_spec,
)
from repro.errors import PolicyError


class TestCostFunctionSpecs:
    def test_uniform_roundtrip(self):
        spec = cost_function_to_spec(UniformDeviationCost())
        assert spec == {"name": "uniform"}
        assert isinstance(cost_function_from_spec(spec), UniformDeviationCost)

    def test_step_roundtrip(self):
        spec = cost_function_to_spec(StepDeviationCost(0.7))
        rebuilt = cost_function_from_spec(spec)
        assert isinstance(rebuilt, StepDeviationCost)
        assert rebuilt.threshold == 0.7

    def test_unknown_rejected(self):
        with pytest.raises(PolicyError):
            cost_function_from_spec({"name": "quadratic"})

    @pytest.mark.parametrize("spec", [
        {"name": "step"}, {"name": "step", "threshold": "high"}, None,
    ], ids=["no-threshold", "string-threshold", "not-an-object"])
    def test_malformed_spec_is_a_policy_error(self, spec):
        with pytest.raises(PolicyError):
            cost_function_from_spec(spec)


class TestPolicySpecs:
    @pytest.mark.parametrize("policy", [
        DelayedLinearPolicy(5.0),
        AverageImmediateLinearPolicy(2.5),
        CurrentImmediateLinearPolicy(1.0),
        TraditionalPointPolicy(5.0, precision=2.0),
        FixedThresholdPolicy(5.0, bound=1.5),
        PeriodicPolicy(5.0, period=3.0),
        AdaptivePolicy(5.0, volatility_threshold=0.4, window_minutes=2.0,
                       hysteresis=0.1),
        HorizonCostPolicy(5.0, horizon=8.0, use_delay=True),
    ])
    def test_roundtrip_preserves_behaviour(self, policy):
        spec = policy_to_spec(policy)
        rebuilt = policy_from_spec(spec)
        assert type(rebuilt) is type(policy)
        assert rebuilt.update_cost == policy.update_cost
        assert rebuilt.describe() == policy.describe()

    def test_step_cost_carried(self):
        policy = FixedThresholdPolicy(
            5.0, bound=1.0, cost_function=StepDeviationCost(0.5)
        )
        rebuilt = policy_from_spec(policy_to_spec(policy))
        assert isinstance(rebuilt.cost_function, StepDeviationCost)
        assert rebuilt.cost_function.threshold == 0.5

    def test_spec_is_json_compatible(self):
        import json

        spec = policy_to_spec(HorizonCostPolicy(5.0, horizon=4.0))
        assert json.loads(json.dumps(spec)) == spec

    def test_unknown_name_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_spec({"name": "psychic", "update_cost": 5.0})

    @pytest.mark.parametrize("spec", [
        {"name": "dl"},
        {"name": "dl", "update_cost": 5.0, "bound": 1.0},
        {"name": "dl", "update_cost": "abc"},
        {"name": "dl", "update_cost": 5.0, "cost_function": "uniform"},
        {"update_cost": 5.0},
        ["dl", 5.0],
    ], ids=["no-update-cost", "extra-key", "string-cost",
            "cost-function-not-an-object", "no-name", "not-an-object"])
    def test_malformed_spec_is_a_policy_error(self, spec):
        with pytest.raises(PolicyError):
            policy_from_spec(spec)
