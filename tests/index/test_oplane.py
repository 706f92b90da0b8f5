"""Unit tests for repro.index.oplane."""

import pytest

from repro.core.bounds import (
    delayed_linear_bounds,
    immediate_linear_bounds,
)
from repro.core.position import PositionAttribute
from repro.errors import IndexError_
from repro.geometry.bbox import Box3D
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane, slab_grid
from tests.index.test_oplane_bounds import maximal_runs

C = 5.0


def make_plane(route, speed=1.0, starttime=0.0, horizon=10.0,
               direction=0, x=0.0, y=0.0, immediate=False,
               max_speed=1.5):
    attr = PositionAttribute(
        starttime=starttime, route_id=route.route_id, start_x=x, start_y=y,
        direction=direction, speed=speed, policy="dl",
    )
    bounds = (
        immediate_linear_bounds(speed, max_speed, C)
        if immediate
        else delayed_linear_bounds(speed, max_speed, C)
    )
    return OPlane(attribute=attr, route=route, bounds=bounds,
                  horizon=horizon)


class TestConstruction:
    def test_validation(self, straight_route_10, l_route):
        with pytest.raises(IndexError_):
            make_plane(straight_route_10, horizon=0.0)
        attr = PositionAttribute(0.0, "other", 0.0, 0.0, 0, 1.0, "dl")
        with pytest.raises(IndexError_):
            OPlane(attr, straight_route_10,
                   delayed_linear_bounds(1.0, 1.5, C), 10.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_horizon_rejected(self, straight_route_10, horizon):
        with pytest.raises(IndexError_, match="finite"):
            make_plane(straight_route_10, horizon=horizon)

    def test_time_span(self, straight_route_10):
        plane = make_plane(straight_route_10, starttime=5.0, horizon=10.0)
        assert plane.start_time == 5.0
        assert plane.end_time == 15.0
        assert plane.covers_time(12.0)
        assert not plane.covers_time(16.0)

    def test_uncertainty_outside_span_rejected(self, straight_route_10):
        plane = make_plane(straight_route_10, horizon=5.0)
        with pytest.raises(IndexError_):
            plane.uncertainty_at(7.0)


class TestTravelRange:
    def test_covers_l_and_u(self, straight_route_10):
        plane = make_plane(straight_route_10, speed=1.0)
        lo, hi = plane.travel_range(0.0, 2.0)
        # At t=2: l = 2 - 2 = 0, u = 2 + 1 = 3.
        assert lo <= 0.0 + 1e-9
        assert hi >= 3.0 - 1e-9

    def test_clamped_to_route(self, straight_route_10):
        plane = make_plane(straight_route_10, speed=2.0, max_speed=3.0,
                           horizon=30.0)
        lo, hi = plane.travel_range(20.0, 30.0)
        assert 0.0 <= lo <= hi <= straight_route_10.length

    def test_invalid_order(self, straight_route_10):
        plane = make_plane(straight_route_10)
        with pytest.raises(IndexError_):
            plane.travel_range(5.0, 2.0)


class TestBoxes:
    def test_slab_count(self, straight_route_10):
        """Five slabs, and the runs tile them in order."""
        plane = make_plane(straight_route_10, horizon=10.0)
        edges = slab_grid(10.0, 2.0)[0]
        assert len(edges) - 1 == 5
        runs = plane.runs(slab_minutes=2.0)
        assert 1 <= len(runs) <= 5
        assert (runs[0].min_t, runs[-1].max_t) == (0.0, 10.0)
        assert all(a.max_t == b.min_t for a, b in zip(runs, runs[1:]))
        assert {run.min_t for run in runs} <= set(edges)

    def test_partial_last_slab(self, straight_route_10):
        plane = make_plane(straight_route_10, horizon=5.0)
        assert slab_grid(5.0, 2.0)[0] == (0.0, 2.0, 4.0, 5.0)
        boxes = plane.runs(slab_minutes=2.0)
        assert boxes[-1].max_t == pytest.approx(5.0)

    def test_boxes_cover_uncertainty_everywhere(self, straight_route_10):
        """Conservativeness: at every time, the uncertainty interval's
        geometry lies inside some slab box."""
        plane = make_plane(straight_route_10, horizon=9.0)
        boxes = plane.runs(slab_minutes=3.0)
        for i in range(91):
            t = 9.0 * i / 90
            interval = plane.uncertainty_at(t)
            geometry = interval.geometry(straight_route_10)
            slab = [b for b in boxes if b.min_t <= t <= b.max_t]
            assert slab
            for vertex in geometry.vertices:
                assert any(
                    b.contains_point(vertex.x, vertex.y, t) for b in slab
                ), (t, vertex)

    def test_boxes_on_l_route(self, l_route):
        """Boxes stay conservative around a corner."""
        plane = make_plane(l_route, speed=0.5, horizon=8.0)
        boxes = plane.runs(slab_minutes=2.0)
        for i in range(81):
            t = 8.0 * i / 80
            interval = plane.uncertainty_at(t)
            for vertex in interval.geometry(l_route).vertices:
                assert any(
                    b.contains_point(vertex.x, vertex.y, t) for b in boxes
                )

    def test_reverse_direction_boxes(self, straight_route_10):
        plane = make_plane(straight_route_10, direction=1, x=10.0,
                           horizon=5.0)
        boxes = plane.runs(slab_minutes=5.0)
        # Travelling from x=10 leftwards: boxes near the right end.
        assert boxes[0].max_x == pytest.approx(10.0)

    def test_one_projection_per_plane(self, l_route, monkeypatch):
        """``runs`` projects the start point once, and builds the runs of
        the boxes ``travel_range`` (which projects per call) gives slab
        by slab."""
        plane = make_plane(l_route, speed=0.5, x=3.0, y=1.0, horizon=9.0)
        expected = []
        for lo_t in (0.0, 2.0, 4.0, 6.0, 8.0):
            hi_t = min(lo_t + 2.0, 9.0)
            lo, hi = plane.travel_range(lo_t, hi_t)
            rect = l_route.interval_polyline(lo, hi, 0).bounding_rect()
            expected.append(Box3D.from_rect(rect, lo_t, hi_t))
        calls = []
        project = Polyline.project
        monkeypatch.setattr(
            Polyline, "project",
            lambda self, point: calls.append(point) or project(self, point),
        )
        assert plane.runs(slab_minutes=2.0) == maximal_runs(expected)
        assert len(calls) == 1

    def test_bad_slab_rejected(self, straight_route_10):
        plane = make_plane(straight_route_10)
        with pytest.raises(IndexError_):
            plane.runs(slab_minutes=0.0)
        with pytest.raises(IndexError_):
            plane.runs(slab_minutes=float("nan"))

    def test_immediate_bounds_narrow_late_boxes(self, straight_route_10):
        """With Proposition-4 bounds, late slabs are not wider than the
        2C/t cap allows."""
        plane = make_plane(straight_route_10, speed=0.5, immediate=True,
                           horizon=10.0, max_speed=1.0)
        boxes = plane.runs(slab_minutes=2.0)
        late = boxes[-1]
        # At t in [8, 10], cap 2C/t <= 1.25 each side; plus the sampling
        # margin and the centre drift of the slab (0.5 * 2 = 1 mile).
        width = late.max_x - late.min_x
        assert width <= 1.25 * 2 + 1.0 + 0.5
