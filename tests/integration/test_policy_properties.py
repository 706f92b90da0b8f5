"""Property-based tests at the whole-policy level (hypothesis).

Random piecewise-constant speed curves drive each policy through the
full simulation engine; the §3.3 soundness contract and the Equation-2
cost identity must hold for every generated trip.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.sim.engine import simulate_trip
from repro.sim.speed_curves import PiecewiseConstantCurve
from repro.sim.trip import Trip
from tests.conftest import examples

DT = 1.0 / 20.0

phase = st.tuples(
    st.floats(min_value=0.5, max_value=4.0),   # duration (minutes)
    st.floats(min_value=0.0, max_value=1.5),   # speed (mi/min)
)
curves = st.lists(phase, min_size=2, max_size=8).map(PiecewiseConstantCurve)
policy_names = st.sampled_from(["dl", "ail", "cil"])
update_costs = st.floats(min_value=0.5, max_value=30.0)


@settings(max_examples=examples(30), deadline=None)
@given(curves, policy_names, update_costs)
def test_deviation_never_exceeds_bound(curve, policy_name, update_cost):
    trip = Trip.synthetic(curve)
    policy = make_policy(policy_name, update_cost)
    result = simulate_trip(trip, policy, dt=DT, record_series=True)
    slack = trip.max_speed * DT * 2 + 1e-6
    for deviation, bound in zip(
        result.series.deviations, result.series.uncertainty_bounds
    ):
        assert deviation <= bound + slack


@settings(max_examples=examples(30), deadline=None)
@given(curves, policy_names, update_costs)
def test_cost_identity(curve, policy_name, update_cost):
    """Equation 2: total = C * messages + integrated deviation cost."""
    trip = Trip.synthetic(curve)
    policy = make_policy(policy_name, update_cost)
    metrics = simulate_trip(trip, policy, dt=DT).metrics
    assert metrics.total_cost == (
        update_cost * metrics.num_updates + metrics.deviation_cost
    )
    assert metrics.num_updates >= 0
    assert metrics.avg_deviation <= metrics.max_deviation + 1e-12


@settings(max_examples=examples(20), deadline=None)
@given(st.floats(min_value=0.1, max_value=1.5), policy_names, update_costs)
def test_constant_speed_is_free(speed, policy_name, update_cost):
    """An object exactly at its declared speed never updates and never
    deviates, for every policy and cost."""
    curve = PiecewiseConstantCurve([(10.0, speed)])
    trip = Trip.synthetic(curve)
    metrics = simulate_trip(
        trip, make_policy(policy_name, update_cost), dt=DT
    ).metrics
    assert metrics.num_updates == 0
    assert metrics.max_deviation <= 1e-9


@settings(max_examples=examples(20), deadline=None)
@given(curves, update_costs)
def test_updates_reset_deviation(curve, update_cost):
    """Immediately after any update the deviation trace returns to ~0."""
    trip = Trip.synthetic(curve)
    result = simulate_trip(
        trip, make_policy("ail", update_cost), dt=DT, record_series=True
    )
    times = result.series.times
    deviations = dict(zip((round(t, 9) for t in times),
                          result.series.deviations))
    for update in result.updates:
        after = round(update.time + DT, 9)
        if after in deviations:
            assert deviations[after] <= trip.max_speed * DT + 1e-9
