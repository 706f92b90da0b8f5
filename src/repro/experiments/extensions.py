"""Extension experiments (E13–E16): beyond the paper's evaluation.

* E13 — the generic horizon-cost policy: equivalence with the
  closed-form trigger under uniform cost, and operation under the
  *step* deviation cost function, which has no closed-form threshold
  in the paper.
* E14 — adaptive policy switching (§3.1's "the most appropriate policy
  may be different for different speed patterns", automated).
* E15 — the §5 argument measured: per-coordinate (x, y) dead reckoning
  vs. route-based modeling on increasingly winding routes at constant
  speed.
* E16 — route changes mid-trip (§3.1's infinite-route-distance rule):
  transitions force updates, the index follows, queries stay sound.
"""

from __future__ import annotations

import random

from repro.core.adaptive import AdaptivePolicy
from repro.core.cost import StepDeviationCost
from repro.core.horizon import HorizonCostPolicy
from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.errors import ExperimentError
from repro.experiments.tables import TableResult
from repro.geometry.polygon import Polygon
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route, winding_route
from repro.sim.engine import simulate_trip
from repro.sim.lanes import simulate_lanes
from repro.sim.metrics import aggregate_metrics
from repro.sim.multileg import Leg, MultiLegDriver, MultiLegTrip
from repro.sim.speed_curves import (
    CityCurve,
    ConstantCurve,
    HighwayCurve,
    MixedCurve,
)
from repro.sim.trip import Trip
from repro.sim.xy_reckoning import (
    simulate_route_dead_reckoning,
    simulate_xy_dead_reckoning,
)
from repro.units import DEFAULT_TICK_MINUTES


def table_horizon_policy(update_cost: float = 5.0, num_curves: int = 6,
                         duration: float = 60.0, seed: int = 31,
                         dt: float = DEFAULT_TICK_MINUTES) -> TableResult:
    """E13: the generic cost-comparison policy at work.

    Row 1 — uniform cost sanity: the horizon policy's trigger is
    ``C/H``, so with ``H`` near the ail policy's typical inter-update
    gap the two behave comparably.
    Rows 2–3 — step cost: the horizon policy holds the deviation near
    the step threshold ``h`` (imprecision below ``h`` is free, so it
    lets the deviation ride up to it), which the uniform-cost policies
    cannot express.
    """
    rng = random.Random(seed)
    curves = [CityCurve(duration, rng) for _ in range(num_curves)]
    trips = [Trip.synthetic(c, route_id=f"hz-{i}")
             for i, c in enumerate(curves)]

    def run(policy_factory):
        return aggregate_metrics([result.metrics for result in simulate_lanes(
            [(trip, policy_factory()) for trip in trips], dt)])

    uniform_horizon = run(
        lambda: HorizonCostPolicy(update_cost, horizon=5.0)
    )
    ail = run(lambda: make_policy("ail", update_cost))

    step = StepDeviationCost(threshold=0.5)
    step_horizon = run(
        lambda: HorizonCostPolicy(update_cost, horizon=5.0,
                                  cost_function=step)
    )
    step_fixed = run(
        lambda: make_policy("fixed-threshold", update_cost, bound=0.5,
                            cost_function=step)
    )
    rows: list[list[object]] = [
        ["uniform: horizon(H=5)", uniform_horizon.num_updates,
         uniform_horizon.total_cost, uniform_horizon.max_deviation],
        ["uniform: ail (closed form)", ail.num_updates,
         ail.total_cost, ail.max_deviation],
        ["step(h=0.5): horizon(H=5)", step_horizon.num_updates,
         step_horizon.total_cost, step_horizon.max_deviation],
        ["step(h=0.5): fixed-threshold(0.5)", step_fixed.num_updates,
         step_fixed.total_cost, step_fixed.max_deviation],
    ]
    return TableResult(
        experiment_id="E13",
        title="Generic horizon-cost policy (C=5)",
        headers=["configuration", "messages/trip", "total cost",
                 "max deviation"],
        rows=rows,
    )


def table_adaptive_policy(update_cost: float = 5.0, num_trips: int = 6,
                          duration: float = 60.0, seed: int = 37,
                          dt: float = DEFAULT_TICK_MINUTES) -> TableResult:
    """E14: adaptive switching on mixed city/highway trips.

    The adaptive policy should track the better of its two delegates on
    mixed trips (city -> highway -> city), where any fixed choice is
    wrong half the time.
    """
    rng = random.Random(seed)
    trips = []
    for i in range(num_trips):
        third = duration / 3.0
        curve = MixedCurve([
            CityCurve(third, rng),
            HighwayCurve(third, rng),
            CityCurve(duration - 2 * third, rng),
        ])
        trips.append(Trip.synthetic(curve, route_id=f"adapt-{i}"))

    rows: list[list[object]] = []
    for label, factory in (
        ("cil (always current)", lambda: make_policy("cil", update_cost)),
        ("ail (always average)", lambda: make_policy("ail", update_cost)),
        ("adaptive (switching)", lambda: AdaptivePolicy(update_cost)),
    ):
        metrics = [
            simulate_trip(trip, factory(), dt=dt).metrics for trip in trips
        ]
        total = sum(m.total_cost for m in metrics) / len(metrics)
        updates = sum(m.num_updates for m in metrics) / len(metrics)
        deviation = sum(m.avg_deviation for m in metrics) / len(metrics)
        rows.append([label, updates, total, deviation])
    return TableResult(
        experiment_id="E14",
        title="Adaptive policy switching on mixed trips (C=5)",
        headers=["policy", "messages/trip", "total cost", "avg deviation"],
        rows=rows,
    )


def table_xy_vs_route(threshold: float = 0.2, duration: float = 30.0,
                      speed: float = 1.0, seed: int = 41,
                      dt: float = DEFAULT_TICK_MINUTES) -> TableResult:
    """E15: the §5 winding-route argument, measured.

    A vehicle drives at *constant speed* over routes of increasing
    curvature.  Route-based dead reckoning never needs an update (the
    declared speed stays exact); per-coordinate reckoning must update
    at every sufficient bend.
    """
    if threshold <= 0:
        raise ExperimentError(f"threshold must be positive, got {threshold}")
    rng = random.Random(seed)
    length = speed * duration + 1.0
    routes = [
        ("straight", straight_route(length, "xy-straight")),
        ("gentle (max 15 deg/seg)",
         winding_route(length, rng, "xy-gentle", max_turn_degrees=15.0)),
        ("winding (max 40 deg/seg)",
         winding_route(length, rng, "xy-winding", max_turn_degrees=40.0)),
        ("hairpin (max 80 deg/seg)",
         winding_route(length, rng, "xy-hairpin", max_turn_degrees=80.0)),
    ]
    rows: list[list[object]] = []
    for label, route in routes:
        trip = Trip(route, ConstantCurve(duration, speed))
        xy = simulate_xy_dead_reckoning(trip, threshold, dt=dt)
        route_based = simulate_route_dead_reckoning(trip, threshold, dt=dt)
        rows.append(
            [label, route_based.num_updates, xy.num_updates,
             xy.avg_deviation]
        )
    return TableResult(
        experiment_id="E15",
        title=(
            f"Route-based vs. per-coordinate dead reckoning "
            f"(constant speed, threshold {threshold} mi)"
        ),
        headers=["route shape", "route-model updates", "xy-model updates",
                 "xy avg deviation"],
        rows=rows,
    )


def table_route_change(update_cost: float = 5.0, num_legs: int = 4,
                       duration: float = 20.0, seed: int = 43,
                       dt: float = 1.0 / 30.0) -> TableResult:
    """E16: route changes force updates and the index follows.

    A journey over ``num_legs`` consecutive routes: every leg boundary
    must produce a route-change update; after the run, a range query
    around the vehicle's true position must include it.
    """
    rng = random.Random(seed)
    leg_length = 0.9 * duration / num_legs + 0.5
    legs = [
        Leg(winding_route(leg_length, rng, f"leg-{i}",
                          origin=(i * leg_length, 0.0),
                          max_turn_degrees=20.0))
        for i in range(num_legs)
    ]
    curve = HighwayCurve(duration, rng, cruise=0.8)
    trip = MultiLegTrip(legs, curve)
    database = MovingObjectDatabase(index=TimeSpaceIndex(),
                                    horizon=duration * 2)
    database.schema.define_mobile_point_class("courier")
    driver = MultiLegDriver(
        "courier-1", "courier", trip, make_policy("cil", update_cost),
        database, dt=dt,
    )
    total_messages = driver.run()

    t = database.clock_time
    actual = trip.position(min(t, trip.duration))
    answer = database.within_distance(actual, 3.0, t)
    final_route = database.record("courier-1").attribute.route_id
    database._index.tree.check_invariants()

    rows: list[list[object]] = [
        ["legs travelled", len({tr.to_route for tr in driver.transitions})
         + 1],
        ["route-change updates", len(driver.transitions)],
        ["policy-triggered updates", driver.policy_updates],
        ["total messages", total_messages],
        ["final route is last leg", final_route == legs[-1].route.route_id
         or final_route],
        ["vehicle found near true position", "courier-1" in answer.may],
    ]
    return TableResult(
        experiment_id="E16",
        title="Mid-trip route changes (multi-leg journey)",
        headers=["quantity", "value"],
        rows=rows,
    )

__all__ = [
    "table_adaptive_policy",
    "table_horizon_policy",
    "table_route_change",
    "table_xy_vs_route",
]
