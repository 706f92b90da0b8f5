"""Synthetic route and network generators.

The paper's simulations run vehicles over one-hour trips on routes; its
motivating applications are city taxi fleets, highway trucking, and
battlefield tracking.  These generators produce the corresponding
geometry:

* :func:`straight_route` — a single straight highway segment,
* :func:`winding_route` — a randomly winding route (exercises the §5
  argument that per-coordinate dynamic attributes fail on winding
  routes),
* :func:`grid_city_network` — a Manhattan-style grid,
* :func:`radial_highway_network` — spokes and a ring around a hub,
* :func:`random_network` — random planar-ish connected network.
"""

from __future__ import annotations

import math
import random

from repro.errors import RouteError
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.routes.network import GridRouteNetwork, RouteNetwork
from repro.routes.route import Route


def straight_route(length: float, route_id: str = "highway",
                   origin: tuple[float, float] = (0.0, 0.0),
                   heading_degrees: float = 0.0) -> Route:
    """A straight route of ``length`` miles starting at ``origin``."""
    if length <= 0:
        raise RouteError("route length must be positive")
    theta = math.radians(heading_degrees)
    start = Point(*origin)
    end = Point(
        origin[0] + length * math.cos(theta),
        origin[1] + length * math.sin(theta),
    )
    return Route(route_id, Polyline([start, end]))


def winding_route(length: float, rng: random.Random,
                  route_id: str = "winding",
                  origin: tuple[float, float] = (0.0, 0.0),
                  segment_length: float = 0.5,
                  max_turn_degrees: float = 40.0) -> Route:
    """A randomly winding route of approximately ``length`` miles.

    Built as a random-heading walk with bounded per-segment turns, so
    the route is smooth-ish but decidedly not straight.  The *route
    length* (arc length) is ``length`` up to one segment of slack.
    """
    if length <= 0 or segment_length <= 0:
        raise RouteError("length and segment_length must be positive")
    heading = rng.uniform(0.0, 2.0 * math.pi)
    points = [Point(*origin)]
    travelled = 0.0
    while travelled < length:
        step = min(segment_length, length - travelled)
        heading += math.radians(rng.uniform(-max_turn_degrees, max_turn_degrees))
        last = points[-1]
        points.append(
            Point(
                last.x + step * math.cos(heading),
                last.y + step * math.sin(heading),
            )
        )
        travelled += step
    return Route(route_id, Polyline(points))


def grid_city_network(blocks_x: int = 10, blocks_y: int = 10,
                      block_miles: float = 0.25) -> GridRouteNetwork:
    """A Manhattan grid of ``blocks_x`` x ``blocks_y`` blocks.

    Intersections are labelled ``(i, j)`` with ``0 <= i <= blocks_x`` and
    ``0 <= j <= blocks_y``; adjacent intersections are joined by roads of
    ``block_miles`` miles.
    """
    return GridRouteNetwork(blocks_x, blocks_y, block_miles)


def radial_highway_network(spokes: int = 6, spoke_miles: float = 20.0,
                           ring_fraction: float = 0.5) -> RouteNetwork:
    """Highways radiating from a hub, joined by a ring road.

    ``spokes`` highways leave the hub at equal angles; a ring road
    connects them at ``ring_fraction`` of the spoke length.  This is the
    classic "city with beltway" shape used for trucking scenarios.
    """
    if spokes < 3 or spoke_miles <= 0 or not 0 < ring_fraction < 1:
        raise RouteError("need >= 3 spokes, positive length, 0 < ring_fraction < 1")
    network = RouteNetwork()
    network.add_intersection("hub", 0.0, 0.0)
    for s in range(spokes):
        theta = 2.0 * math.pi * s / spokes
        ring_x = ring_fraction * spoke_miles * math.cos(theta)
        ring_y = ring_fraction * spoke_miles * math.sin(theta)
        tip_x = spoke_miles * math.cos(theta)
        tip_y = spoke_miles * math.sin(theta)
        network.add_intersection(("ring", s), ring_x, ring_y)
        network.add_intersection(("tip", s), tip_x, tip_y)
        network.add_road("hub", ("ring", s))
        network.add_road(("ring", s), ("tip", s))
    for s in range(spokes):
        network.add_road(("ring", s), ("ring", (s + 1) % spokes))
    return network


def random_network(num_intersections: int, extent_miles: float,
                   rng: random.Random,
                   neighbours: int = 3) -> RouteNetwork:
    """A random connected network over a square extent.

    Each intersection is placed uniformly at random and joined to its
    ``neighbours`` nearest neighbours; a spanning chain guarantees
    connectivity.  This models the irregular road webs of battlefield
    or rural scenarios.
    """
    if num_intersections < 2 or extent_miles <= 0 or neighbours < 1:
        raise RouteError("need >= 2 intersections, positive extent, >= 1 neighbour")
    network = RouteNetwork()
    positions: list[tuple[int, Point]] = []
    for n in range(num_intersections):
        point = Point(
            rng.uniform(0.0, extent_miles), rng.uniform(0.0, extent_miles)
        )
        network.add_intersection(n, point.x, point.y)
        positions.append((n, point))
    for n, point in positions:
        by_distance = sorted(
            (other for other in positions if other[0] != n),
            key=lambda item: point.distance_to(item[1]),
        )
        for other, _ in by_distance[:neighbours]:
            network.add_road(n, other)
    # Guarantee connectivity with a chain over a random ordering.
    order = [n for n, _ in positions]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        network.add_road(a, b)
    return network

__all__ = [
    "grid_city_network",
    "radial_highway_network",
    "random_network",
    "straight_route",
    "winding_route",
]
