"""Unit tests for repro.core.bounds (Propositions 2-4, Corollary 1)."""

import math

import pytest

from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.bounds import (
    bounds_for_policy,
    delayed_linear_bounds,
    fixed_threshold_bounds,
    immediate_bound_peak,
    immediate_linear_bounds,
    periodic_bounds,
    traditional_bounds,
)
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.errors import PolicyError

V, BIG_V, C = 1.0, 1.5, 5.0


class TestDelayedLinearBounds:
    """Propositions 2-3 and Corollary 1, checked against Example 1."""

    def test_slow_ramp_then_plateau(self):
        b = delayed_linear_bounds(V, BIG_V, C)
        # Rises at v = 1 mi/min for ~3.16 minutes, then plateaus.
        assert b.slow(2.0) == pytest.approx(2.0)
        assert b.slow(10.0) == pytest.approx(math.sqrt(10.0))
        assert b.slow(15.0) == b.slow(10.0)

    def test_fast_ramp_then_plateau(self):
        b = delayed_linear_bounds(V, BIG_V, C)
        # Rises at V - v = 0.5 mi/min, plateaus at sqrt(2*0.5*5) = 2.236.
        assert b.fast(4.0) == pytest.approx(2.0)
        assert b.fast(10.0) == pytest.approx(math.sqrt(5.0))

    def test_total_is_max_of_directions(self):
        b = delayed_linear_bounds(V, BIG_V, C)
        for t in (0.0, 1.0, 3.0, 10.0):
            assert b.total(t) == max(b.slow(t), b.fast(t))

    def test_zero_at_zero_elapsed(self):
        b = delayed_linear_bounds(V, BIG_V, C)
        assert b.slow(0.0) == b.fast(0.0) == b.total(0.0) == 0.0

    def test_declared_above_max_speed_clamps_gap(self):
        # Declared speed above V: no fast deviation possible.
        b = delayed_linear_bounds(2.0, 1.5, C)
        assert b.fast(10.0) == 0.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(PolicyError):
            delayed_linear_bounds(V, BIG_V, C).total(-1.0)


class TestImmediateLinearBounds:
    """Proposition 4: the bound eventually decreases."""

    def test_example1_decay(self):
        b = immediate_linear_bounds(V, BIG_V, C)
        # "for t >= 4, it is 10/t"
        assert b.slow(4.0) == pytest.approx(2.5)
        assert b.slow(10.0) == pytest.approx(1.0)
        assert b.fast(5.0) == pytest.approx(2.0)

    def test_zero_at_zero_elapsed(self):
        b = immediate_linear_bounds(V, BIG_V, C)
        assert b.slow(0.0) == 0.0
        assert b.fast(0.0) == 0.0

    def test_rises_then_falls(self):
        b = immediate_linear_bounds(V, BIG_V, C)
        t_peak, peak = immediate_bound_peak(V, BIG_V, C)
        assert b.total(t_peak) == pytest.approx(peak)
        assert b.total(t_peak * 0.5) < peak
        assert b.total(t_peak * 2.0) < peak

    def test_peak_formula(self):
        t_peak, peak = immediate_bound_peak(V, BIG_V, C)
        assert t_peak == pytest.approx(math.sqrt(2 * C / 1.0))
        assert peak == pytest.approx(math.sqrt(2 * C * 1.0))

    def test_peak_degenerate(self):
        assert immediate_bound_peak(0.0, 0.0, C) == (0.0, 0.0)

    def test_immediate_never_exceeds_delayed_after_peak(self):
        """The §3.3 contrast: after the plateau point the immediate bound
        is strictly tighter than the dl bound."""
        dl = delayed_linear_bounds(V, BIG_V, C)
        imm = immediate_linear_bounds(V, BIG_V, C)
        for t in (5.0, 8.0, 12.0, 30.0):
            assert imm.total(t) < dl.total(t)


class TestBaselineBounds:
    def test_fixed_threshold_capped(self):
        b = fixed_threshold_bounds(V, BIG_V, bound=2.0)
        assert b.slow(1.0) == pytest.approx(1.0)
        assert b.slow(10.0) == 2.0
        assert b.fast(10.0) == 2.0

    def test_fixed_threshold_validation(self):
        with pytest.raises(PolicyError):
            fixed_threshold_bounds(V, BIG_V, bound=0.0)

    def test_traditional_only_fast(self):
        b = traditional_bounds(max_speed=BIG_V, precision=1.0)
        assert b.slow(100.0) == 0.0
        assert b.fast(0.5) == pytest.approx(0.75)
        assert b.fast(10.0) == 1.0

    def test_periodic_unbounded_physics_only(self):
        b = periodic_bounds(V, BIG_V)
        assert b.slow(10.0) == pytest.approx(10.0)
        assert b.fast(10.0) == pytest.approx(5.0)


class TestDispatch:
    def test_dl_dispatch(self):
        bounds = bounds_for_policy(DelayedLinearPolicy(C), V, BIG_V)
        assert bounds.slow(10.0) == pytest.approx(math.sqrt(10.0))

    def test_ail_and_cil_dispatch_identically(self):
        ail = bounds_for_policy(AverageImmediateLinearPolicy(C), V, BIG_V)
        cil = bounds_for_policy(CurrentImmediateLinearPolicy(C), V, BIG_V)
        for t in (1.0, 5.0, 10.0):
            assert ail.total(t) == cil.total(t)

    def test_baseline_dispatch(self):
        fixed = bounds_for_policy(FixedThresholdPolicy(C, bound=1.5), V, BIG_V)
        assert fixed.total(100.0) == 1.5
        trad = bounds_for_policy(
            TraditionalPointPolicy(C, precision=2.0), V, BIG_V
        )
        assert trad.total(100.0) == 2.0
        per = bounds_for_policy(PeriodicPolicy(C, period=1.0), V, BIG_V)
        assert per.total(2.0) == pytest.approx(2.0)

    def test_unknown_policy_rejected(self):
        class Mystery(DelayedLinearPolicy):
            pass

        # Subclasses still dispatch (isinstance); a truly foreign policy
        # must raise.
        from repro.core.policy import UpdatePolicy

        class Foreign(UpdatePolicy):
            name = "foreign"

            def decide(self, state):
                raise NotImplementedError

        assert bounds_for_policy(Mystery(C), V, BIG_V) is not None
        with pytest.raises(PolicyError):
            bounds_for_policy(Foreign(C), V, BIG_V)


def family_bounds():
    """``(name, bounds)`` for every family, at speeds that make each
    bound's branches cross inside the grid below."""
    from repro.core.cost import StepDeviationCost
    from repro.core.horizon import HorizonCostPolicy

    for v, big_v, cost in [(0.0, 1.0, 0.18), (1.0, 1.5, 5.0),
                           (0.3, 0.3, 0.0), (1e-300, 2.0, 5.0)]:
        yield "dl", delayed_linear_bounds(v, big_v, cost)
        yield "immediate", immediate_linear_bounds(v, big_v, cost)
        yield "fixed-threshold", fixed_threshold_bounds(v, big_v, 0.7)
        yield "traditional", traditional_bounds(big_v, 0.7)
        yield "periodic", periodic_bounds(v, big_v)
        for policy in (HorizonCostPolicy(cost, horizon=4.0),
                       HorizonCostPolicy(cost, horizon=4.0,
                                         cost_function=StepDeviationCost(1))):
            yield "horizon", bounds_for_policy(policy, v, big_v)


class TestSlowCeiling:
    """``ceiling(e)`` is no smaller than the computed ``slow(t)`` at any
    ``t >= e``; periodic bounds, the horizon policy under a non-uniform
    cost and hand-built bounds have none."""

    GRID = [0.0, 1e-300, 0.01, 0.6, 1.0, 2.5, 3.3, 10.0, 120.0, 1e6]

    def test_ceiling_bounds_every_later_slow(self):
        checked = 0
        for name, bounds in family_bounds():
            if bounds.ceiling is None:
                assert name in ("periodic", "horizon")
                continue
            for i, e in enumerate(self.GRID):
                ceiling = bounds.ceiling(e)
                assert all(bounds.slow(t) <= ceiling
                           for t in self.GRID[i:]), (name, e)
                checked += 1
        assert checked > 100

    def test_family_ceilings(self):
        assert immediate_linear_bounds(0.5, 1.0, 5.0).ceiling(0.0) == math.inf
        assert immediate_linear_bounds(0.5, 1.0, 5.0).ceiling(4.0) == 2.5
        # Parked, min(2C/t, 0 t) is 0 at every t.
        assert immediate_linear_bounds(0.0, 1.0, 5.0).ceiling(0.0) == 0.0
        assert delayed_linear_bounds(2.0, 3.0, 5.0).ceiling(0.0) == (
            math.sqrt(20.0))
        assert fixed_threshold_bounds(1.0, 2.0, 0.7).ceiling(9.0) == 0.7
        assert traditional_bounds(2.0, 0.7).ceiling(0.0) == 0.0
        assert periodic_bounds(1.0, 2.0).ceiling is None
        from repro.core.bounds import DeviationBounds

        assert DeviationBounds(abs, abs).ceiling is None

    def test_horizon_ceilings_follow_the_trigger(self):
        from repro.core.bounds import horizon_cost_bounds

        assert horizon_cost_bounds(1.0, 2.0, 5.0, 4.0).ceiling(3.0) == 1.25
        assert horizon_cost_bounds(1.0, 2.0, 0.0, 4.0).ceiling(3.0) == 0.0

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        """``C/inf`` is 0, the free-updates bound: a drifting object
        would be claimed exact."""
        from repro.core.bounds import horizon_cost_bounds

        with pytest.raises(PolicyError, match="finite"):
            horizon_cost_bounds(1.0, 2.0, 5.0, horizon)
