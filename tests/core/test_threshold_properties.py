"""Property-based tests for the threshold and bound mathematics."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    delayed_linear_bounds,
    immediate_linear_bounds,
)
from repro.core.thresholds import (
    cost_per_time_unit,
    optimal_update_threshold,
)
from tests.conftest import examples

slopes = st.floats(min_value=0.01, max_value=10.0)
delays = st.floats(min_value=0.0, max_value=20.0)
costs = st.floats(min_value=0.01, max_value=100.0)
speeds = st.floats(min_value=0.0, max_value=3.0)
times = st.floats(min_value=0.0, max_value=120.0)


class TestProposition1Properties:
    @given(slopes, delays, costs)
    def test_threshold_positive(self, a, b, c):
        assert optimal_update_threshold(a, b, c) > 0.0

    @settings(max_examples=examples(200))
    @given(slopes, delays, costs,
           st.floats(min_value=0.05, max_value=20.0))
    def test_kopt_globally_optimal(self, a, b, c, multiplier):
        """No other threshold beats k_opt's steady-state cost rate.

        This is the substance of Proposition 1, checked against random
        alternatives rather than just the calculus.
        """
        k_opt = optimal_update_threshold(a, b, c)
        other = k_opt * multiplier
        assert (
            cost_per_time_unit(k_opt, a, b, c)
            <= cost_per_time_unit(other, a, b, c) + 1e-9
        )

    @given(slopes, delays, costs)
    def test_delayed_threshold_below_immediate(self, a, b, c):
        """§3.2: k_opt(a, b) <= k_opt(a, 0) for every a, b, C."""
        assert optimal_update_threshold(a, b, c) <= (
            optimal_update_threshold(a, 0.0, c) + 1e-9
        )

    @given(slopes, delays, costs)
    def test_closed_form_satisfies_first_order_condition(self, a, b, c):
        """k^2 + 2abk - 2aC = 0 at the optimum."""
        k = optimal_update_threshold(a, b, c)
        residual = k * k + 2 * a * b * k - 2 * a * c
        assert abs(residual) <= 1e-6 * max(1.0, 2 * a * c)


class TestBoundProperties:
    @given(speeds, speeds, costs, times)
    def test_bounds_nonnegative(self, v, extra, c, t):
        big_v = v + extra
        for bounds in (
            delayed_linear_bounds(v, big_v, c),
            immediate_linear_bounds(v, big_v, c),
        ):
            assert bounds.slow(t) >= 0.0
            assert bounds.fast(t) >= 0.0
            assert bounds.total(t) == max(bounds.slow(t), bounds.fast(t))

    @given(speeds, speeds, costs, times)
    def test_immediate_at_most_delayed(self, v, extra, c, t):
        """min(2C/t, Dt) <= min(sqrt(2DC), Dt): the immediate bound never
        exceeds the dl bound at equal parameters."""
        big_v = v + extra
        dl = delayed_linear_bounds(v, big_v, c)
        imm = immediate_linear_bounds(v, big_v, c)
        assert imm.total(t) <= dl.total(t) + 1e-9

    @given(speeds, speeds, costs)
    def test_bounds_zero_at_zero(self, v, extra, c):
        big_v = v + extra
        assert delayed_linear_bounds(v, big_v, c).total(0.0) == 0.0
        assert immediate_linear_bounds(v, big_v, c).total(0.0) == 0.0

    @given(speeds, speeds, costs,
           st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=60.0))
    def test_delayed_bound_monotone(self, v, extra, c, t1, t2):
        """The dl bound never decreases with elapsed time (§3.3)."""
        big_v = v + extra
        lo, hi = sorted((t1, t2))
        bounds = delayed_linear_bounds(v, big_v, c)
        assert bounds.total(lo) <= bounds.total(hi) + 1e-9

    @given(speeds, speeds, costs)
    def test_immediate_bound_decays_after_peak(self, v, extra, c):
        big_v = v + extra
        dominant = max(v, big_v - v)
        if dominant <= 0:
            return
        bounds = immediate_linear_bounds(v, big_v, c)
        t_peak = math.sqrt(2 * c / dominant)
        samples = [t_peak * f for f in (1.0, 1.5, 2.0, 4.0)]
        values = [bounds.total(t) for t in samples]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9
