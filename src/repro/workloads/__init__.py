"""Ready-made workload scenarios from the paper's introduction.

* :func:`taxi_fleet_scenario` — city cabs on a Manhattan grid ("retrieve
  the free cabs that are currently within 1 mile of 33 N. Michigan
  Ave."),
* :func:`trucking_scenario` — long-haul trucks on a radial highway
  network ("retrieve the trucks that are currently within 1 mile of
  truck ABT312"),
* :func:`battlefield_scenario` — units on an irregular random network
  ("retrieve the friendly helicopters that are currently in a given
  region"),
* :func:`polygon_query_workload` — a randomized stream of range-query
  polygons over a network's extent,
* :func:`mixed_query_workload` — a batched serving workload mixing
  position, range, and within-distance queries for the
  :class:`~repro.dbms.batch.BatchQueryEngine`.

Each name is imported when first read (PEP 562), so a caller that only
wants query streams never loads the simulator the scenarios run on.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.workloads.query_workloads import (
        mixed_query_workload, polygon_query_workload, within_distance_workload,
    )
    from repro.workloads.scenarios import (
        FleetScenario, battlefield_scenario, taxi_fleet_scenario,
        trucking_scenario,
    )

#: Public name -> the submodule that defines it.
_LAZY = {
    "FleetScenario": "repro.workloads.scenarios",
    "battlefield_scenario": "repro.workloads.scenarios",
    "taxi_fleet_scenario": "repro.workloads.scenarios",
    "trucking_scenario": "repro.workloads.scenarios",
    "mixed_query_workload": "repro.workloads.query_workloads",
    "polygon_query_workload": "repro.workloads.query_workloads",
    "within_distance_workload": "repro.workloads.query_workloads",
}

__all__ = [
    "FleetScenario",
    "taxi_fleet_scenario",
    "trucking_scenario",
    "battlefield_scenario",
    "polygon_query_workload",
    "within_distance_workload",
    "mixed_query_workload",
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
