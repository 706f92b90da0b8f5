"""Unit tests for repro.core.horizon (the generic decision procedure)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bounds import bounds_for_policy
from repro.core.cost import (
    DeviationCostFunction,
    StepDeviationCost,
    UniformDeviationCost,
)
from repro.core.estimators import DelayedLinearEstimator
from repro.core.horizon import HorizonCostPolicy
from repro.core.policy import OnboardState
from repro.errors import PolicyError

C = 5.0


def state(deviation=1.0, elapsed=4.0, current=1.0):
    return OnboardState(
        elapsed=elapsed,
        deviation=deviation,
        distance_since_update=elapsed,
        elapsed_at_last_zero_deviation=0.0,
        current_speed=current,
        average_speed_since_update=1.0,
        trip_average_speed=1.0,
        declared_speed=1.0,
        trip_elapsed=elapsed + 1.0,
    )


class TestUniformCost:
    def test_collapses_to_c_over_h(self):
        """Uniform cost: cost difference over horizon H is exactly k*H,
        so the update fires iff k >= C/H."""
        policy = HorizonCostPolicy(C, horizon=5.0)
        trigger = C / 5.0
        assert not policy.decide(state(deviation=trigger * 0.9)).send
        assert policy.decide(state(deviation=trigger * 1.1)).send

    def test_cost_difference_is_k_times_h(self):
        policy = HorizonCostPolicy(C, horizon=4.0)
        difference = policy.predicted_cost_difference(state(deviation=0.75))
        assert difference == pytest.approx(0.75 * 4.0)

    def test_longer_horizon_updates_sooner(self):
        short = HorizonCostPolicy(C, horizon=2.0)
        long = HorizonCostPolicy(C, horizon=10.0)
        s = state(deviation=1.0)
        assert not short.decide(s).send   # trigger 2.5
        assert long.decide(s).send        # trigger 0.5

    def test_zero_deviation_no_update(self):
        policy = HorizonCostPolicy(C, horizon=5.0)
        assert not policy.decide(state(deviation=0.0)).send
        assert policy.predicted_cost_difference(state(deviation=0.0)) == 0.0


class TestStepCost:
    def test_no_gain_when_both_above_threshold(self):
        """If the estimator already predicts the deviation above the
        step threshold, updating does not reduce the step cost."""
        step = StepDeviationCost(threshold=0.5)
        policy = HorizonCostPolicy(C, horizon=5.0, cost_function=step)
        # Slope k/t = 2/4 = 0.5: base crosses 0.5 after 1 minute, so
        # only ~1 of the 5 horizon minutes differs; gain < C.
        assert not policy.decide(state(deviation=2.0, elapsed=4.0)).send

    def test_fires_when_update_keeps_deviation_below_step(self):
        """Small slope, deviation above the step threshold: an update
        makes (almost) the whole horizon free."""
        step = StepDeviationCost(threshold=0.5)
        policy = HorizonCostPolicy(4.9, horizon=5.0, cost_function=step)
        # Slope = 0.6/30 = 0.02: the base stays below 0.5 all horizon.
        assert policy.decide(state(deviation=0.6, elapsed=30.0)).send

    def test_the_tie_is_decided_by_the_rule(self):
        """``H = C``, a flat estimator and ``k > h``: not updating costs
        one unit per minute over the whole horizon, exactly ``C``, and
        ``>=`` sends.  (Summed as 300 terms of ``5/300`` the same
        integral read ``4.999999999999988`` and did not.)"""
        step = StepDeviationCost(threshold=0.5)
        policy = HorizonCostPolicy(5.0, horizon=5.0, cost_function=step)
        tie = state(deviation=0.6, elapsed=30.0)
        assert policy.predicted_cost_difference(tie) == 5.0
        assert policy.decide(tie).send

    def test_bound_falls_back_to_physics(self):
        step = StepDeviationCost(threshold=0.5)
        policy = HorizonCostPolicy(C, horizon=5.0, cost_function=step)
        bounds = bounds_for_policy(policy, 1.0, 1.5)
        assert bounds.total(10.0) == pytest.approx(10.0)  # v*t


def quadrature(cost, k, estimator, horizon, step):
    """The base class's midpoint sum, whatever ``cost`` overrides."""
    return DeviationCostFunction.horizon_difference(
        cost, k, estimator, horizon, step
    )


class TestClosedForms:
    """Each cost function's own answer to the §3.1 integral against the
    quadrature every user-defined cost function still gets."""

    # A slope below ~1e-16 is absorbed by ``g(s) + k`` in the sum (at
    # ``k = h`` it reads 0 where the integral is ``H``), so the oracle is
    # only asked about slopes it can represent, and about exactly 0.
    @given(
        k=st.floats(0.001, 10.0),
        slope=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        delay=st.floats(0.0, 12.0), h=st.floats(0.0, 5.0),
        horizon=st.floats(0.5, 10.0),
    )
    def test_within_one_quadrature_step(self, k, slope, delay, h, horizon):
        estimator = DelayedLinearEstimator(slope, delay)
        dt = 1.0 / 60.0
        # The sum's own step: an indicator's two edges cost it half a
        # step each, and that is the whole of its error.
        one_step = horizon / round(horizon / dt) + 1e-9
        for cost in (UniformDeviationCost(), StepDeviationCost(h)):
            exact = cost.horizon_difference(k, estimator, horizon, dt)
            assert exact == pytest.approx(
                quadrature(cost, k, estimator, horizon, dt), abs=one_step
            )

    def test_uniform_is_k_times_h_whatever_the_estimator(self):
        cost = UniformDeviationCost()
        for estimator in (DelayedLinearEstimator(0.0, 0.0),
                          DelayedLinearEstimator(3.0, 2.0)):
            assert cost.horizon_difference(0.75, estimator, 4.0, 0.1) == 3.0

    @pytest.mark.parametrize("k, slope, delay, horizon, expected", [
        # h = 0.5 throughout.  Flat estimator: the update matters for
        # the whole horizon iff k alone is over the step.
        (0.6, 0.0, 0.0, 5.0, 5.0),
        (0.5, 0.0, 0.0, 5.0, 0.0),
        (0.4, 0.0, 3.0, 5.0, 0.0),
        # k > h (h - k < 0): over the step from time 0 without the
        # update, until g itself crosses h at delay + h / slope.
        (2.0, 0.5, 0.0, 5.0, 1.0),
        (2.0, 0.5, 1.5, 5.0, 2.5),
        (2.0, 0.5, 4.5, 5.0, 5.0),      # g crosses h past the horizon
        (2.0, 0.01, 0.0, 5.0, 5.0),
        # k <= h: from g's crossing of h - k to its crossing of h.
        (0.25, 0.5, 0.0, 5.0, 0.5),     # [0.5, 1.0]
        (0.25, 0.5, 1.0, 5.0, 0.5),     # [1.5, 2.0]: both after the delay
        (0.5, 0.5, 2.0, 5.0, 1.0),      # h - k = 0: from the delay itself
        (0.25, 0.5, 4.25, 5.0, 0.25),   # [4.75, 5.25] cut at the horizon
        (0.25, 0.5, 6.0, 5.0, 0.0),     # both crossings past the horizon
    ])
    def test_step_exact_cases(self, k, slope, delay, horizon, expected):
        cost = StepDeviationCost(0.5)
        estimator = DelayedLinearEstimator(slope, delay)
        exact = cost.horizon_difference(k, estimator, horizon, 1.0 / 60.0)
        assert exact == pytest.approx(expected, abs=1e-12)

    def test_no_deviation_no_difference(self):
        step = StepDeviationCost(threshold=0.5)
        for cost_function in (None, step):
            policy = HorizonCostPolicy(C, cost_function=cost_function)
            assert policy.predicted_cost_difference(state(deviation=0.0)) == 0.0
        for slope in (0.0, 0.5):
            estimator = DelayedLinearEstimator(slope, 1.0)
            assert step.horizon_difference(0.0, estimator, 5.0, 0.1) == 0.0

    def test_a_user_defined_cost_function_is_integrated_numerically(self):
        """No override, no closed form: the quadrature and
        ``integration_step`` are what decide."""
        class Quadratic(DeviationCostFunction):
            name = "quadratic"

            def rate(self, deviation):
                return deviation * deviation

        # rate(g + k) - rate(g) = 2 g k + k^2 with g(s) = s / 4, k = 1:
        # over [0, 4] that is 4 + 4 = 8 (the midpoint rule is exact on
        # a linear integrand).
        policy = HorizonCostPolicy(7.9, horizon=4.0, cost_function=Quadratic(),
                                   integration_step=0.5)
        s = state(deviation=1.0, elapsed=4.0)
        assert policy.predicted_cost_difference(s) == pytest.approx(8.0)
        assert policy.decide(s).send


class TestBoundsAndValidation:
    def test_uniform_bounds_capped_at_trigger(self):
        policy = HorizonCostPolicy(C, horizon=5.0)
        bounds = bounds_for_policy(policy, 1.0, 1.5)
        assert bounds.total(100.0) == pytest.approx(C / 5.0)

    def test_parameters_checked(self):
        with pytest.raises(PolicyError):
            HorizonCostPolicy(C, horizon=0.0)
        # C/inf would be the free-updates trigger: a zero bound.
        with pytest.raises(PolicyError, match="finite"):
            HorizonCostPolicy(C, horizon=float("inf"))
        with pytest.raises(PolicyError):
            HorizonCostPolicy(C, horizon=5.0, integration_step=0.0)
        with pytest.raises(PolicyError):
            HorizonCostPolicy(C, horizon=5.0, integration_step=6.0)

    def test_describe(self):
        description = HorizonCostPolicy(C, horizon=3.0).describe()
        assert description["horizon"] == 3.0
        assert description["name"] == "horizon"
