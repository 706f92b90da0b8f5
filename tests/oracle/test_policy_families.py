"""Every kernel family against the reference loop, and against its bound.

The first slice of the policy state machine: for each row of
:data:`repro.sim.engine.KERNEL_FAMILIES`, hypothesis draws speed curves
(piecewise constant with stops, or the city and highway generators), a
tick length, update costs (``C = 0`` and duplicates among them) and the
row's own parameters — bounds and precisions below
``ZERO_DEVIATION_TOLERANCE`` among them, both speed predictors, the
step cost wherever the decision does not read it — and runs every lane
through :func:`~repro.sim.lanes.simulate_lanes` with series
recorded.  Each lane must equal :meth:`PolicySimulation._run_generic`
(``policy_reference.reference_run``) on ``repr``: metrics, events and
series.

Then §3.3 read as a claim about the run: at every recorded tick the
deviation stays within the bound the DBMS derives from the policy, up to
E18's slack for a discrete clock, ``2 V dt + 1e-9``.  A family that
breaks it is a finding (EXPERIMENTS.md), pinned below as a strict
``xfail`` with its counterexample — not tuned away.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost import StepDeviationCost
from repro.core.policies import make_policy
from repro.core.speed import AverageSpeedSinceUpdate, CurrentSpeed
from repro.exec import TickGrid
from repro.sim.engine import supports_fast_path
from repro.sim.lanes import simulate_lanes
from repro.sim.speed_curves import (
    CityCurve,
    HighwayCurve,
    PiecewiseConstantCurve,
)
from repro.sim.trip import Trip
from repro.sim.vehicle import ZERO_DEVIATION_TOLERANCE
from tests.conftest import examples
from tests.oracle.policy_reference import reference_run

LEVELS = st.sampled_from((ZERO_DEVIATION_TOLERANCE / 2,
                          ZERO_DEVIATION_TOLERANCE, 0.01, 0.3, 1.0))
PREDICTORS = st.sampled_from((CurrentSpeed(), AverageSpeedSinceUpdate()))
#: ``make_policy`` keywords per family, drawn.
PARAMETERS = {
    "dl": st.just({}),
    "ail": st.just({}),
    "cil": st.just({}),
    "fixed-threshold": st.fixed_dictionaries(
        {"bound": LEVELS, "speed_predictor": PREDICTORS}),
    "traditional": st.fixed_dictionaries({"precision": LEVELS}),
    "periodic": st.fixed_dictionaries(
        {"period": st.sampled_from((0.05, 0.3, 1.0, 2.5)),
         "speed_predictor": PREDICTORS}),
    "horizon": st.fixed_dictionaries(
        {"horizon": st.sampled_from((0.5, 2.0, 5.0, 1e6)),
         "use_delay": st.booleans(), "speed_predictor": PREDICTORS}),
}
COSTS = (0.0, 0.0, 1e-6, 0.05, 1.0, 5.0)


@st.composite
def trips(draw):
    """A short trip: stop-and-go steps, or a generated city/highway curve."""
    minutes = draw(st.sampled_from((1.0, 2.0, 3.05)))
    if draw(st.booleans()):
        curve = draw(st.sampled_from((CityCurve, HighwayCurve)))(
            minutes, random.Random(draw(st.integers(0, 99))))
    else:
        curve = PiecewiseConstantCurve(draw(st.lists(st.tuples(
            st.sampled_from((0.1, 0.25, 0.5, 0.7)),
            st.sampled_from((0.0, 0.0, 0.3, 1.0, 1.7))), min_size=1,
            max_size=6)))
    return Trip.synthetic(curve)


@st.composite
def runs(draw, family):
    """``(grids, policy factories, dt)``: lanes of one family."""
    dt = draw(st.sampled_from((0.1, 1.0 / 30.0, 1.0 / 60.0)))
    grids = [TickGrid.build(trip, dt)
             for trip in draw(st.lists(trips(), min_size=1, max_size=3))]
    rows = draw(st.lists(st.tuples(st.sampled_from(COSTS),
                                   PARAMETERS[family]), min_size=1, max_size=4))
    step = draw(st.one_of(st.none(), st.sampled_from((0.0, 0.05, 0.5))))
    if step is not None:
        rows = [(cost, {**kwargs, "cost_function": StepDeviationCost(step)})
                for cost, kwargs in rows]
    return grids, [lambda cost=cost, kwargs=kwargs: make_policy(
        family, cost, **kwargs) for cost, kwargs in rows], dt


def lanes_of(grids, factories):
    """Every ``(grid, policy factory)`` lane, row-major."""
    return [(grid, factory) for factory in factories for grid in grids]


@pytest.mark.parametrize("family", sorted(PARAMETERS))
@settings(max_examples=examples(40))
@given(data=st.data())
def test_every_family_matches_the_reference_loop(family, data):
    grids, factories, dt = data.draw(runs(family))
    lanes = lanes_of(grids, factories)
    results = simulate_lanes([(grid, factory()) for grid, factory in lanes],
                             dt, record_series=True)
    for (grid, factory), result in zip(lanes, results):
        policy = factory()
        assert supports_fast_path(policy) == (
            family != "horizon"
            or type(policy.cost_function) is not StepDeviationCost)
        reference = reference_run(grid, policy, record_series=True)
        assert repr(result.metrics) == repr(reference.metrics)
        assert repr(result.updates) == repr(reference.updates)
        assert repr(result.series) == repr(reference.series)


def unsound_ticks(grid, policy):
    """Ticks whose deviation escapes the policy's bound beyond E18's slack."""
    series = reference_run(grid, policy, record_series=True).series
    slack = 2.0 * grid.max_speed * grid.dt + 1e-9
    return [(t, deviation, bound) for t, deviation, bound in zip(
        series.times, series.deviations, series.uncertainty_bounds)
        if deviation > bound + slack]


#: The traditional method's counterexample: the trip-start write declares
#: the initial speed for every method, while the bound assumes the
#: static point (speed 0) from the start.  Cruise at 1 mi/min, then stop:
#: the stored position runs on at 1 mi/min, the distance travelled
#: never reaches the precision, and the deviation grows past it.
TRADITIONAL_COUNTEREXAMPLE = [(0.2, 1.0), (2.0, 0.0)]


def test_traditional_counterexample_escapes_its_bound():
    grid = TickGrid.build(Trip.synthetic(
        PiecewiseConstantCurve(TRADITIONAL_COUNTEREXAMPLE)), 0.1)
    escaped = unsound_ticks(grid, make_policy("traditional", 1.0,
                                              precision=0.5))
    assert escaped and escaped[-1][1] > 1.5  # bound min(0.5, V t) = 0.5


SOUND = [family if family != "traditional" else pytest.param(
    family, marks=pytest.mark.xfail(
        strict=True, reason="the traditional bound ignores the "
        "trip-start speed (TRADITIONAL_COUNTEREXAMPLE)"))
    for family in sorted(PARAMETERS)]


@pytest.mark.parametrize("family", SOUND)
@settings(max_examples=examples(40))
@given(data=st.data())
@example(data=None)
def test_every_recorded_tick_is_within_the_bound(family, data):
    if data is None:  # the pinned example: the counterexample's curve
        grids = [TickGrid.build(Trip.synthetic(
            PiecewiseConstantCurve(TRADITIONAL_COUNTEREXAMPLE)), 0.1)]
        factories = [lambda: make_policy(family, 1.0, **(
            {"precision": 0.5} if family == "traditional" else {}))]
    else:
        grids, factories, _ = data.draw(runs(family))
    for grid, factory in lanes_of(grids, factories):
        assert unsound_ticks(grid, factory()) == []
