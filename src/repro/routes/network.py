"""Road networks backed by a networkx graph.

A :class:`RouteNetwork` is a set of intersections (graph nodes with
planar coordinates) joined by straight road segments (edges weighted by
Euclidean length).  Trip routes are derived as shortest paths between
intersections, giving the winding piecewise-linear routes the paper's
vehicles travel on.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Hashable

from repro.errors import RouteError
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.routes.route import Route

if TYPE_CHECKING:
    import networkx as nx


class RouteNetwork:
    """A planar road network from which routes are derived."""

    def __init__(self) -> None:
        # networkx is about a quarter of `import repro`; only processes
        # that build a network pay for it.
        import networkx as nx

        self._graph = nx.Graph()
        self._route_counter = itertools.count(1)

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (nodes carry ``pos=Point``)."""
        return self._graph

    def add_intersection(self, node: Hashable, x: float, y: float) -> None:
        """Add an intersection at planar coordinates ``(x, y)``."""
        self._graph.add_node(node, pos=Point(x, y))

    def add_road(self, a: Hashable, b: Hashable) -> None:
        """Add a straight road between two existing intersections."""
        if a not in self._graph or b not in self._graph:
            raise RouteError(f"both intersections must exist: {a!r}, {b!r}")
        pa: Point = self._graph.nodes[a]["pos"]
        pb: Point = self._graph.nodes[b]["pos"]
        self._graph.add_edge(a, b, weight=pa.distance_to(pb))

    def position_of(self, node: Hashable) -> Point:
        """Planar coordinates of an intersection."""
        try:
            return self._graph.nodes[node]["pos"]
        except KeyError:
            raise RouteError(f"unknown intersection {node!r}") from None

    def num_intersections(self) -> int:
        return self._graph.number_of_nodes()

    def num_roads(self) -> int:
        return self._graph.number_of_edges()

    def shortest_route(self, origin: Hashable, destination: Hashable,
                       route_id: str | None = None) -> Route:
        """The shortest-path route between two intersections.

        Raises :class:`RouteError` when no path exists.
        """
        import networkx as nx  # loaded when this network was constructed

        try:
            nodes = nx.shortest_path(
                self._graph, origin, destination, weight="weight"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RouteError(
                f"no route from {origin!r} to {destination!r}"
            ) from exc
        if len(nodes) < 2:
            raise RouteError("origin and destination must differ")
        points = [self._graph.nodes[n]["pos"] for n in nodes]
        rid = route_id or f"route-{next(self._route_counter)}"
        return Route(rid, Polyline(points), name=f"{origin}->{destination}")

    def random_route(self, rng: random.Random, min_length: float = 0.0,
                     route_id: str | None = None,
                     max_attempts: int = 64) -> Route:
        """A shortest-path route between two random intersections.

        Retries until the route is at least ``min_length`` miles long;
        raises :class:`RouteError` when no such route is found within
        ``max_attempts`` attempts.
        """
        nodes = list(self._graph.nodes)
        if len(nodes) < 2:
            raise RouteError("network needs at least two intersections")
        for _ in range(max_attempts):
            origin, destination = rng.sample(nodes, 2)
            try:
                route = self.shortest_route(origin, destination, route_id)
            except RouteError:
                continue
            if route.length >= min_length:
                return route
        raise RouteError(
            f"could not find a route of length >= {min_length} "
            f"in {max_attempts} attempts"
        )

    def bounding_extent(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all intersections."""
        positions = [self._graph.nodes[n]["pos"] for n in self._graph.nodes]
        if not positions:
            raise RouteError("network has no intersections")
        xs = [p.x for p in positions]
        ys = [p.y for p in positions]
        return min(xs), min(ys), max(xs), max(ys)

__all__ = [
    "RouteNetwork",
]
