"""Unit tests for repro.routes.network."""

import os
import random
import subprocess
import sys

import pytest

from repro.errors import RouteError
from repro.routes.network import RouteNetwork


@pytest.fixture
def triangle() -> RouteNetwork:
    net = RouteNetwork()
    net.add_intersection("a", 0.0, 0.0)
    net.add_intersection("b", 3.0, 0.0)
    net.add_intersection("c", 3.0, 4.0)
    net.add_road("a", "b")
    net.add_road("b", "c")
    net.add_road("a", "c")
    return net


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.num_intersections() == 3
        assert triangle.num_roads() == 3

    def test_road_requires_existing_nodes(self, triangle):
        with pytest.raises(RouteError):
            triangle.add_road("a", "zzz")

    def test_position_of(self, triangle):
        assert triangle.position_of("b").as_tuple() == (3.0, 0.0)

    def test_position_of_unknown(self, triangle):
        with pytest.raises(RouteError):
            triangle.position_of("zzz")

    def test_bounding_extent(self, triangle):
        assert triangle.bounding_extent() == (0.0, 0.0, 3.0, 4.0)

    def test_bounding_extent_empty(self):
        with pytest.raises(RouteError):
            RouteNetwork().bounding_extent()


class TestShortestRoute:
    def test_direct_edge_wins(self, triangle):
        route = triangle.shortest_route("a", "c")
        # Direct a-c road is 5 miles; via b it would be 7.
        assert route.length == pytest.approx(5.0)

    def test_multi_hop(self):
        net = RouteNetwork()
        net.add_intersection(0, 0.0, 0.0)
        net.add_intersection(1, 1.0, 0.0)
        net.add_intersection(2, 2.0, 0.0)
        net.add_road(0, 1)
        net.add_road(1, 2)
        route = net.shortest_route(0, 2)
        assert route.length == pytest.approx(2.0)
        assert len(route.polyline.vertices) == 3

    def test_no_path(self):
        net = RouteNetwork()
        net.add_intersection("x", 0.0, 0.0)
        net.add_intersection("y", 1.0, 0.0)
        with pytest.raises(RouteError):
            net.shortest_route("x", "y")

    def test_same_node_rejected(self, triangle):
        with pytest.raises(RouteError):
            triangle.shortest_route("a", "a")

    def test_route_id_assignment(self, triangle):
        route = triangle.shortest_route("a", "b", route_id="my-route")
        assert route.route_id == "my-route"

    def test_auto_ids_unique(self, triangle):
        r1 = triangle.shortest_route("a", "b")
        r2 = triangle.shortest_route("b", "c")
        assert r1.route_id != r2.route_id


class TestRandomRoute:
    def test_respects_min_length(self, triangle):
        rng = random.Random(5)
        route = triangle.random_route(rng, min_length=4.0)
        assert route.length >= 4.0

    def test_deterministic_with_seed(self, triangle):
        r1 = triangle.random_route(random.Random(9), min_length=1.0)
        r2 = triangle.random_route(random.Random(9), min_length=1.0)
        assert r1.length == r2.length

    def test_impossible_min_length(self, triangle):
        with pytest.raises(RouteError):
            triangle.random_route(random.Random(1), min_length=1000.0,
                                  max_attempts=8)

    def test_sees_an_intersection_added_after_a_draw(self):
        """The node sequence is listed once per network, not per call —
        and listed again when the network grows."""
        net = RouteNetwork()
        net.add_intersection("a", 0.0, 0.0)
        net.add_intersection("b", 1.0, 0.0)
        net.add_road("a", "b")
        assert net.random_route(random.Random(3)).length == 1.0
        net.add_intersection("far", 100.0, 0.0)
        net.add_road("b", "far")
        assert net.random_route(random.Random(3), min_length=50.0).length >= 99.0

    def test_needs_two_intersections(self):
        net = RouteNetwork()
        net.add_intersection("solo", 0.0, 0.0)
        with pytest.raises(RouteError):
            net.random_route(random.Random(1))


class TestLazyImport:
    def test_networkx_loads_with_the_first_network(self):
        """``import repro`` alone must not pay for networkx (``trace
        replay``, ``lint`` and ``monitor`` processes never build a
        network), and neither must a fleet on a grid, which constructs
        its routes: only a general network, or a grid's ``.graph``, does."""
        script = (
            "import random, sys, repro\n"
            "from repro.routes.generators import grid_city_network\n"
            "from repro.routes.network import RouteNetwork\n"
            "assert 'networkx' not in sys.modules\n"
            "grid = grid_city_network(36, 36, 0.25)\n"
            "rng = random.Random(7)\n"
            "for _ in range(50):\n"
            "    grid.random_route(rng, min_length=4.0)\n"
            "grid.bounding_extent(), grid.num_roads(), grid.position_of((1, 1))\n"
            "assert 'networkx' not in sys.modules\n"
            "RouteNetwork()\n"
            "assert 'networkx' in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.returncode == 0, done.stderr
