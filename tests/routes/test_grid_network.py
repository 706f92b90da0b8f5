"""The grid network constructs its routes; networkx is the oracle.

``GridRouteNetwork`` builds no graph and runs no search, so every claim
here is checked against the general, networkx-backed ``RouteNetwork``
over the same intersections and roads (``general_grid``), or against
``net.graph``, the view the grid builds only when asked.
"""

import random

import networkx as nx
import pytest

from repro.errors import RouteError
from repro.routes.generators import grid_city_network
from repro.routes.network import GridRouteNetwork, RouteNetwork

GRIDS = [(1, 1, 0.25), (3, 2, 0.5), (36, 36, 0.25), (56, 56, 0.25)]


def general_grid(blocks_x, blocks_y, block_miles):
    """The same grid on the general network, as the generator built it
    before the grid knew its own metric."""
    network = RouteNetwork()
    for i in range(blocks_x + 1):
        for j in range(blocks_y + 1):
            network.add_intersection((i, j), i * block_miles, j * block_miles)
    for i in range(blocks_x + 1):
        for j in range(blocks_y + 1):
            if i < blocks_x:
                network.add_road((i, j), (i + 1, j))
            if j < blocks_y:
                network.add_road((i, j), (i, j + 1))
    return network


def endpoint_pairs(network, seed, count=25):
    rng = random.Random(seed)
    nodes = list(network.graph.nodes)
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


@pytest.mark.parametrize("shape", GRIDS)
class TestAgainstTheSearch:
    def test_the_graph_view_is_the_general_grid(self, shape):
        net, general = grid_city_network(*shape), general_grid(*shape)
        assert list(net.graph.nodes) == list(general.graph.nodes)
        assert nx.utils.graphs_equal(net.graph, general.graph)
        assert net.num_intersections() == general.num_intersections()
        assert net.num_roads() == general.num_roads()
        assert net.bounding_extent() == general.bounding_extent()

    def test_constructed_routes_are_shortest_paths(self, shape):
        net = grid_city_network(*shape)
        for origin, destination in endpoint_pairs(net, seed=shape[0]):
            route = net.shortest_route(origin, destination)
            assert route.length == nx.shortest_path_length(
                net.graph, origin, destination, weight="weight"
            )
            vertices = route.polyline.vertices
            assert vertices[0] == net.position_of(origin)
            assert vertices[-1] == net.position_of(destination)
            path = net._node_path(origin, destination)
            assert [net.position_of(n) for n in path] == list(vertices)
            assert all(net.graph.has_edge(a, b)
                       for a, b in zip(path, path[1:]))
            assert route.name == f"{origin}->{destination}"

    def test_random_route_draws_what_the_search_draws(self, shape):
        """Same seed, same ``(origin, destination)`` sequence and the
        same accept/reject decisions: the rng stream is untouched."""
        net, general = grid_city_network(*shape), general_grid(*shape)
        longest = (shape[0] + shape[1]) * shape[2]
        rng_a, rng_b = random.Random(1998), random.Random(1998)
        for _ in range(12):
            ours = net.random_route(rng_a, min_length=longest / 3,
                                    max_attempts=256)
            theirs = general.random_route(rng_b, min_length=longest / 3,
                                          max_attempts=256)
            assert ours.name == theirs.name
            assert ours.route_id == theirs.route_id
            assert ours.length == theirs.length
        assert rng_a.getstate() == rng_b.getstate()


class TestTheRule:
    def test_along_x_then_along_y(self):
        net = grid_city_network(4, 4, 0.5)
        route = net.shortest_route((3, 1), (1, 3))
        assert [v.as_tuple() for v in route.polyline.vertices] == [
            (1.5, 0.5), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.5, 1.5),
        ]

    def test_ids_as_on_the_general_network(self):
        net = grid_city_network(2, 2)
        assert net.shortest_route((0, 0), (1, 0)).route_id == "route-1"
        assert net.shortest_route((0, 0), (0, 1)).route_id == "route-2"
        assert net.shortest_route((0, 0), (2, 2), "mine").route_id == "mine"

    def test_generator_returns_the_grid(self):
        assert isinstance(grid_city_network(2, 3), GridRouteNetwork)


class TestRejections:
    @pytest.mark.parametrize("node", [
        (5, 0), (0, -1), (0, 0, 0), "a", 3, None, (0.5, 1), [0, 1],
    ])
    def test_unknown_intersections(self, node):
        net = grid_city_network(4, 4)
        with pytest.raises(RouteError):
            net.position_of(node)
        with pytest.raises(RouteError):
            net.shortest_route((0, 0), node)
        with pytest.raises(RouteError):
            net.shortest_route(node, (0, 0))

    def test_equal_nodes(self):
        with pytest.raises(RouteError):
            grid_city_network(4, 4).shortest_route((2, 2), (2, 2))

    def test_a_grid_is_fixed_at_construction(self):
        net = grid_city_network(4, 4)
        with pytest.raises(RouteError):
            net.add_road((0, 0), (1, 1))
        with pytest.raises(RouteError):
            net.add_intersection((9, 9), 9.0, 9.0)

    def test_impossible_min_length(self):
        with pytest.raises(RouteError):
            grid_city_network(2, 2).random_route(
                random.Random(1), min_length=100.0, max_attempts=8)

