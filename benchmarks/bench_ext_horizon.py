"""E13: the generic horizon-cost decision procedure (§3.1, generalised).

The closed-form dl/ail/cil triggers exist only for the uniform cost
function; the horizon policy implements the paper's generic
cost-comparison rule — the cost function evaluates the §3.1 integral,
exactly for uniform and step — and therefore also optimises the *step*
cost function.  The bench checks the generic policy does not lose to a
blind fixed threshold under step cost, and times its decision kernel.
"""

from repro.core.cost import StepDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policy import OnboardState
from repro.experiments.extensions import table_horizon_policy


def test_horizon_policy(benchmark):
    table = table_horizon_policy(num_curves=6, duration=60.0, dt=1.0 / 30.0)
    print()
    print(table.render())

    horizon_step = table.row_by_key("step(h=0.5): horizon(H=5)")[2]
    fixed_step = table.row_by_key("step(h=0.5): fixed-threshold(0.5)")[2]
    assert horizon_step <= fixed_step * 1.2

    # Uniform-cost equivalence sanity: both cost-based rows are within
    # a small factor of each other.
    horizon_uniform = table.row_by_key("uniform: horizon(H=5)")[2]
    ail_uniform = table.row_by_key("uniform: ail (closed form)")[2]
    assert horizon_uniform <= ail_uniform * 3.0

    policy = HorizonCostPolicy(5.0, horizon=5.0,
                               cost_function=StepDeviationCost(0.5))
    state = OnboardState(
        elapsed=4.0, deviation=1.0, distance_since_update=4.0,
        elapsed_at_last_zero_deviation=0.0, current_speed=1.0,
        average_speed_since_update=1.0, trip_average_speed=1.0,
        declared_speed=1.0, trip_elapsed=5.0,
    )
    benchmark(lambda: policy.decide(state))
