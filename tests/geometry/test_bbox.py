"""Unit tests for repro.geometry.bbox."""

import pytest

from repro.errors import GeometryError
from repro.geometry.bbox import Box3D, Rect2D
from repro.geometry.point import Point

NAN = float("nan")
INF = float("inf")


class TestRect2D:
    def test_inverted_raises(self):
        with pytest.raises(GeometryError):
            Rect2D(1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("coords", [
        (NAN, 0.0, 1.0, 1.0), (0.0, NAN, 1.0, 1.0),
        (0.0, 0.0, NAN, 1.0), (0.0, 0.0, 1.0, NAN), (NAN,) * 4,
    ])
    def test_nan_raises(self, coords):
        with pytest.raises(GeometryError, match="NaN"):
            Rect2D(*coords)

    def test_from_points(self):
        r = Rect2D.from_points([Point(1, 5), Point(-2, 3), Point(0, 0)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (-2, 0, 1, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect2D.from_points([])

    def test_dimensions(self):
        r = Rect2D(0, 0, 4, 3)
        assert r.width == 4 and r.height == 3 and r.area == 12
        assert r.center == Point(2.0, 1.5)

    def test_contains_point_boundary_inclusive(self):
        r = Rect2D(0, 0, 1, 1)
        assert r.contains_point(Point(0.0, 0.5))
        assert r.contains_point(Point(1.0, 1.0))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_intersects_overlap_and_touch(self):
        a = Rect2D(0, 0, 2, 2)
        assert a.intersects(Rect2D(1, 1, 3, 3))
        assert a.intersects(Rect2D(2, 0, 4, 2))  # edge touch counts
        assert not a.intersects(Rect2D(2.1, 0, 4, 2))

    def test_union(self):
        u = Rect2D(0, 0, 1, 1).union(Rect2D(2, -1, 3, 0.5))
        assert (u.min_x, u.min_y, u.max_x, u.max_y) == (0, -1, 3, 1)

    def test_expanded(self):
        e = Rect2D(0, 0, 1, 1).expanded(0.5)
        assert (e.min_x, e.min_y, e.max_x, e.max_y) == (-0.5, -0.5, 1.5, 1.5)


class TestBox3D:
    def test_inverted_raises(self):
        with pytest.raises(GeometryError):
            Box3D(0, 0, 1, 1, 1, 0)

    @pytest.mark.parametrize("axis", range(6))
    def test_nan_raises(self, axis):
        coords = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        coords[axis] = NAN
        with pytest.raises(GeometryError, match="NaN"):
            Box3D(*coords)

    def test_infinite_extent_is_still_a_box(self):
        box = Box3D(-INF, 0.0, 0.0, INF, 1.0, 1.0)
        assert box.contains(Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0))

    def test_from_rect_roundtrip(self):
        rect = Rect2D(0, 1, 2, 3)
        box = Box3D.from_rect(rect, 5.0, 7.0)
        assert box.rect == rect
        assert box.min_t == 5.0 and box.max_t == 7.0

    def test_volume_and_margin(self):
        box = Box3D(0, 0, 0, 2, 3, 4)
        assert box.volume == 24.0
        assert box.margin == 9.0

    def test_degenerate_volume_zero(self):
        assert Box3D(0, 0, 5, 2, 3, 5).volume == 0.0

    def test_intersects_in_all_axes(self):
        a = Box3D(0, 0, 0, 1, 1, 1)
        assert a.intersects(Box3D(0.5, 0.5, 0.5, 2, 2, 2))
        # Disjoint only in time.
        assert not a.intersects(Box3D(0, 0, 2, 1, 1, 3))

    def test_time_slice_intersection(self):
        # A time-plane query box at t inside the slab intersects it.
        slab = Box3D(0, 0, 10, 4, 4, 15)
        assert slab.intersects(Box3D(1, 1, 12, 2, 2, 12))
        assert not slab.intersects(Box3D(1, 1, 16, 2, 2, 16))

    def test_contains(self):
        outer = Box3D(0, 0, 0, 10, 10, 10)
        assert outer.contains(Box3D(1, 1, 1, 2, 2, 2))
        assert not outer.contains(Box3D(1, 1, 1, 11, 2, 2))

    def test_union_volume_increase(self):
        a = Box3D(0, 0, 0, 1, 1, 1)
        same = a.union_volume_increase(Box3D(0, 0, 0, 1, 1, 1))
        grow = a.union_volume_increase(Box3D(0, 0, 0, 2, 1, 1))
        assert same == 0.0
        assert grow == pytest.approx(1.0)

    def test_contains_point(self):
        box = Box3D(0, 0, 0, 1, 1, 1)
        assert box.contains_point(0.5, 0.5, 1.0)
        assert not box.contains_point(0.5, 0.5, 1.1)
