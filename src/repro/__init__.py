"""repro — a moving-objects database with cost-based update policies.

A full reproduction of Wolfson, Chamberlain, Dao, Jiang & Mendez,
*Cost and Imprecision in Modeling the Position of Moving Objects*
(ICDE 1998): temporal position attributes, the dl/ail/cil update
policies with their optimal thresholds (Proposition 1), DBMS-side
deviation bounds (Propositions 2–4), uncertainty intervals, may/must
range-query semantics (Theorems 5–6), o-plane time-space indexing over
a from-scratch 3-D R-tree, a trip simulator, and an experiment harness
regenerating the paper's evaluation.

Quickstart::

    import random
    from repro import (
        AverageImmediateLinearPolicy, Trip, HighwayCurve, simulate_trip,
    )

    curve = HighwayCurve(60.0, random.Random(1))      # a one-hour trip
    trip = Trip.synthetic(curve)
    result = simulate_trip(trip, AverageImmediateLinearPolicy(update_cost=5.0))
    print(result.metrics.num_updates, result.metrics.total_cost)

See ``examples/`` for fleet + DBMS + index usage and ``DESIGN.md`` for
the system inventory.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core import (
        AdaptivePolicy, AverageImmediateLinearPolicy,
        CurrentImmediateLinearPolicy, DelayedLinearPolicy, DeviationBounds,
        FixedThresholdPolicy, HorizonCostPolicy, OnboardState, PeriodicPolicy,
        PositionAttribute, StepDeviationCost, TraditionalPointPolicy,
        UncertaintyInterval, UniformDeviationCost, UpdateDecision,
        UpdatePolicy, delayed_linear_bounds, immediate_linear_bounds,
        make_policy, optimal_update_threshold,
    )
    from repro.dbms import (
        BatchQueryEngine, MovingObjectDatabase, PositionAnswer, PositionQuery,
        PositionUpdateMessage, RangeAnswer, RangeQuery, WithinDistanceQuery,
    )
    from repro.geometry import Point, Polygon, Polyline
    from repro.index import LinearScanIndex, OPlane, RTree, TimeSpaceIndex
    from repro.routes import (
        Route, RouteDatabase, RouteNetwork, grid_city_network,
        radial_highway_network, random_network, straight_route, winding_route,
    )
    from repro.sim import (
        CityCurve, ConstantCurve, HighwayCurve, MixedCurve,
        PiecewiseConstantCurve, RushHourCurve, TraceCurve, TrafficJamCurve,
        Trip, TripMetrics, simulate_trip, standard_curve_set,
    )
    from repro.analysis import OfflineSchedule, offline_optimal_schedule
    from repro.exec import GridTrip, SweepExecutor, TickGrid, TripTickCache
    from repro.trace import (
        TraceRecorder, TraceReplayer, read_trace, use_recorder, write_trace,
    )
    from repro.workloads import (
        battlefield_scenario, taxi_fleet_scenario, trucking_scenario,
    )

__version__ = "1.0.0"

#: Every public name and the subpackage it comes from.  ``import repro``
#: imports none of them: a name's subpackage is imported the first time
#: the name is read (PEP 562), so a command loads only what it uses.
_LAZY = {
    "AdaptivePolicy": "repro.core",
    "AverageImmediateLinearPolicy": "repro.core",
    "CurrentImmediateLinearPolicy": "repro.core",
    "DelayedLinearPolicy": "repro.core", "DeviationBounds": "repro.core",
    "FixedThresholdPolicy": "repro.core", "HorizonCostPolicy": "repro.core",
    "OnboardState": "repro.core", "PeriodicPolicy": "repro.core",
    "PositionAttribute": "repro.core", "StepDeviationCost": "repro.core",
    "TraditionalPointPolicy": "repro.core",
    "UncertaintyInterval": "repro.core", "UniformDeviationCost": "repro.core",
    "UpdateDecision": "repro.core", "UpdatePolicy": "repro.core",
    "delayed_linear_bounds": "repro.core",
    "immediate_linear_bounds": "repro.core", "make_policy": "repro.core",
    "optimal_update_threshold": "repro.core",
    "BatchQueryEngine": "repro.dbms", "MovingObjectDatabase": "repro.dbms",
    "PositionAnswer": "repro.dbms", "PositionQuery": "repro.dbms",
    "PositionUpdateMessage": "repro.dbms", "RangeAnswer": "repro.dbms",
    "RangeQuery": "repro.dbms", "WithinDistanceQuery": "repro.dbms",
    "Point": "repro.geometry", "Polygon": "repro.geometry",
    "Polyline": "repro.geometry",
    "LinearScanIndex": "repro.index", "OPlane": "repro.index",
    "RTree": "repro.index", "TimeSpaceIndex": "repro.index",
    "Route": "repro.routes", "RouteDatabase": "repro.routes",
    "RouteNetwork": "repro.routes", "grid_city_network": "repro.routes",
    "radial_highway_network": "repro.routes", "random_network": "repro.routes",
    "straight_route": "repro.routes", "winding_route": "repro.routes",
    "CityCurve": "repro.sim", "ConstantCurve": "repro.sim",
    "HighwayCurve": "repro.sim", "MixedCurve": "repro.sim",
    "PiecewiseConstantCurve": "repro.sim", "RushHourCurve": "repro.sim",
    "TraceCurve": "repro.sim", "TrafficJamCurve": "repro.sim",
    "Trip": "repro.sim", "TripMetrics": "repro.sim",
    "simulate_trip": "repro.sim", "standard_curve_set": "repro.sim",
    "OfflineSchedule": "repro.analysis",
    "offline_optimal_schedule": "repro.analysis",
    "GridTrip": "repro.exec", "SweepExecutor": "repro.exec",
    "TickGrid": "repro.exec", "TripTickCache": "repro.exec",
    "TraceRecorder": "repro.trace", "TraceReplayer": "repro.trace",
    "read_trace": "repro.trace", "use_recorder": "repro.trace",
    "write_trace": "repro.trace",
    "battlefield_scenario": "repro.workloads",
    "taxi_fleet_scenario": "repro.workloads",
    "trucking_scenario": "repro.workloads",
}

__all__ = [
    # policies & core model
    "PositionAttribute",
    "UpdatePolicy",
    "UpdateDecision",
    "OnboardState",
    "DelayedLinearPolicy",
    "AverageImmediateLinearPolicy",
    "CurrentImmediateLinearPolicy",
    "TraditionalPointPolicy",
    "FixedThresholdPolicy",
    "PeriodicPolicy",
    "AdaptivePolicy",
    "HorizonCostPolicy",
    "make_policy",
    "optimal_update_threshold",
    "UniformDeviationCost",
    "StepDeviationCost",
    "DeviationBounds",
    "delayed_linear_bounds",
    "immediate_linear_bounds",
    "UncertaintyInterval",
    # DBMS
    "MovingObjectDatabase",
    "PositionUpdateMessage",
    "PositionAnswer",
    "RangeAnswer",
    "BatchQueryEngine",
    "PositionQuery",
    "RangeQuery",
    "WithinDistanceQuery",
    # geometry & routes
    "Point",
    "Polyline",
    "Polygon",
    "Route",
    "RouteDatabase",
    "RouteNetwork",
    "straight_route",
    "winding_route",
    "grid_city_network",
    "radial_highway_network",
    "random_network",
    # index
    "RTree",
    "OPlane",
    "TimeSpaceIndex",
    "LinearScanIndex",
    # simulation
    "Trip",
    "TripMetrics",
    "simulate_trip",
    "ConstantCurve",
    "PiecewiseConstantCurve",
    "HighwayCurve",
    "CityCurve",
    "TrafficJamCurve",
    "RushHourCurve",
    "TraceCurve",
    "MixedCurve",
    "standard_curve_set",
    # analysis
    "OfflineSchedule",
    "offline_optimal_schedule",
    # execution
    "SweepExecutor",
    "TripTickCache",
    "TickGrid",
    "GridTrip",
    # trace
    "TraceRecorder",
    "TraceReplayer",
    "read_trace",
    "use_recorder",
    "write_trace",
    # workloads
    "taxi_fleet_scenario",
    "trucking_scenario",
    "battlefield_scenario",
    "__version__",
]


def __getattr__(name: str) -> Any:
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
