"""Routes and route networks.

The paper assumes "the database stores a set of routes, and at any point
in time each object moves along a unique route from the route database"
(§2).  This package provides:

* :class:`~repro.routes.route.Route` — an identified piecewise-linear
  route with direction semantics,
* :class:`~repro.routes.network.RouteNetwork` — a road network from
  which shortest-path routes are derived: searched on a :mod:`networkx`
  graph in general, constructed outright on a Manhattan grid
  (:class:`~repro.routes.network.GridRouteNetwork`),
* generators for grid-city, radial-highway and random networks used by
  the workloads and benchmarks.
"""

from repro.routes.generators import (
    grid_city_network,
    radial_highway_network,
    random_network,
    straight_route,
    winding_route,
)
from repro.routes.network import RouteNetwork
from repro.routes.route import Route, RouteDatabase

__all__ = [
    "Route",
    "RouteDatabase",
    "RouteNetwork",
    "grid_city_network",
    "radial_highway_network",
    "random_network",
    "straight_route",
    "winding_route",
]
