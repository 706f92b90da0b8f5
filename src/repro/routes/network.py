"""Road networks: a general one searched with networkx, and the grid.

A :class:`RouteNetwork` is a set of intersections (graph nodes with
planar coordinates) joined by straight road segments (edges weighted by
Euclidean length).  Trip routes are derived as shortest paths between
intersections, giving the winding piecewise-linear routes the paper's
vehicles travel on: searched for on a :mod:`networkx` graph in general,
constructed by a fixed rule on a grid (:class:`GridRouteNetwork`).
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Hashable, Sequence

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
        # that build a general network pay for it.
        import networkx as nx

        self._graph = nx.Graph()
        self._nodes: list[Hashable] | None = None
        self._route_counter = itertools.count(1)

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (nodes carry ``pos=Point``)."""
        return self._graph

    def add_intersection(self, node: Hashable, x: float, y: float) -> None:
        """Add an intersection at planar coordinates ``(x, y)``."""
        self._graph.add_node(node, pos=Point(x, y))
        self._nodes = None

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
        return len(self._node_sequence())

    def num_roads(self) -> int:
        return self._graph.number_of_edges()

    def _node_sequence(self) -> Sequence[Hashable]:
        """The intersections in insertion order, listed once per network."""
        if self._nodes is None:
            self._nodes = list(self._graph.nodes)
        return self._nodes

    def _node_path(self, origin: Hashable,
                   destination: Hashable) -> Sequence[Hashable]:
        """The intersections along a shortest path, both ends included."""
        import networkx as nx  # loaded when this network was constructed

        try:
            return nx.shortest_path(
                self._graph, origin, destination, weight="weight"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RouteError(
                f"no route from {origin!r} to {destination!r}"
            ) from exc

    def shortest_route(self, origin: Hashable, destination: Hashable,
                       route_id: str | None = None) -> Route:
        """The shortest-path route between two intersections.

        Raises :class:`RouteError` when no path exists.
        """
        nodes = self._node_path(origin, destination)
        if len(nodes) < 2:
            raise RouteError("origin and destination must differ")
        points = [self.position_of(n) for n in nodes]
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
        nodes = self._node_sequence()
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


class GridRouteNetwork(RouteNetwork):
    """A uniform Manhattan grid that knows its own metric.

    Intersection ``(i, j)`` sits at ``(i * block_miles, j * block_miles)``
    and every monotone staircase between two intersections is a shortest
    path, so a route is *constructed* from its endpoints alone — along x,
    then along y, one vertex per intersection — with no graph and no
    search.  The grid is fixed at construction; :attr:`graph` builds the
    equivalent networkx view on first read, for callers that want graph
    algorithms and for the tests that check the construction against it.
    """

    def __init__(self, blocks_x: int, blocks_y: int,
                 block_miles: float) -> None:
        if blocks_x < 1 or blocks_y < 1 or block_miles <= 0:
            raise RouteError("grid needs positive block counts and block size")
        # Not super().__init__(): that is what imports networkx.
        self._graph = None
        self._nodes = [(i, j) for i in range(blocks_x + 1)
                       for j in range(blocks_y + 1)]
        self._route_counter = itertools.count(1)
        self.blocks_x = blocks_x
        self.blocks_y = blocks_y
        self.block_miles = block_miles

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            general = RouteNetwork()
            for node in self._nodes:
                general.add_intersection(node, *self.position_of(node))
            for i, j in self._nodes:
                for neighbour in ((i + 1, j), (i, j + 1)):
                    if neighbour in general.graph:
                        general.add_road((i, j), neighbour)
            self._graph = general.graph
        return self._graph

    def add_intersection(self, node: Hashable, x: float, y: float) -> None:
        raise RouteError("a grid network is fixed at construction")

    def add_road(self, a: Hashable, b: Hashable) -> None:
        raise RouteError("a grid network is fixed at construction")

    def _cell(self, node: Hashable) -> tuple[int, int]:
        """``node`` as ``(i, j)`` when it names an intersection of the grid."""
        if (isinstance(node, tuple) and len(node) == 2
                and isinstance(node[0], int) and isinstance(node[1], int)
                and 0 <= node[0] <= self.blocks_x
                and 0 <= node[1] <= self.blocks_y):
            return node
        raise RouteError(f"unknown intersection {node!r}")

    def position_of(self, node: Hashable) -> Point:
        i, j = self._cell(node)
        return Point(i * self.block_miles, j * self.block_miles)

    def num_roads(self) -> int:
        return (self.blocks_x * (self.blocks_y + 1)
                + self.blocks_y * (self.blocks_x + 1))

    def _node_path(self, origin: Hashable,
                   destination: Hashable) -> Sequence[Hashable]:
        i0, j0 = self._cell(origin)
        i1, j1 = self._cell(destination)
        di = 1 if i1 >= i0 else -1
        dj = 1 if j1 >= j0 else -1
        path = [(i, j0) for i in range(i0, i1, di)]
        path.extend((i1, j) for j in range(j0, j1 + dj, dj))
        return path

    def bounding_extent(self) -> tuple[float, float, float, float]:
        return (0.0, 0.0, self.blocks_x * self.block_miles,
                self.blocks_y * self.block_miles)


__all__ = [
    "GridRouteNetwork",
    "RouteNetwork",
]
