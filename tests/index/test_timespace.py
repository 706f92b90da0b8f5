"""Unit tests for repro.index.timespace."""

import pytest

from repro.core.bounds import delayed_linear_bounds
from repro.core.position import PositionAttribute
from repro.dbms.database import MovingObjectDatabase
from repro.errors import IndexError_
from repro.geometry.bbox import Rect2D
from repro.index.oplane import OPlane
from repro.index.rtree import SearchStats
from repro.index.timespace import IndexMaintenanceStats, TimeSpaceIndex
from repro.routes.generators import straight_route

C = 5.0


def plane_for(route, speed=1.0, starttime=0.0, x=0.0, y=0.0,
              horizon=20.0):
    attr = PositionAttribute(
        starttime=starttime, route_id=route.route_id, start_x=x, start_y=y,
        direction=0, speed=speed, policy="dl",
    )
    return OPlane(attr, route, delayed_linear_bounds(speed, 1.5, C), horizon)


@pytest.fixture
def route():
    return straight_route(40.0, "h1")


class TestInsertRemove:
    def test_insert_and_candidates(self, route):
        index = TimeSpaceIndex(slab_minutes=5.0)
        index.insert("o1", plane_for(route))
        assert "o1" in index and len(index) == 1
        found = index.candidates_at(Rect2D(0.0, -1.0, 5.0, 1.0), 2.0)
        assert found == {"o1"}

    def test_duplicate_insert_rejected(self, route):
        index = TimeSpaceIndex()
        index.insert("o1", plane_for(route))
        with pytest.raises(IndexError_):
            index.insert("o1", plane_for(route))

    def test_remove(self, route):
        index = TimeSpaceIndex()
        index.insert("o1", plane_for(route))
        removed = index.remove("o1")
        assert removed > 0
        assert "o1" not in index
        assert index.total_boxes() == 0
        with pytest.raises(IndexError_):
            index.remove("o1")

    def test_plane_of(self, route):
        index = TimeSpaceIndex()
        plane = plane_for(route)
        index.insert("o1", plane)
        assert index.plane_of("o1") is plane
        with pytest.raises(IndexError_):
            index.plane_of("ghost")


class TestReplace:
    def test_swap_counts(self, route):
        index = TimeSpaceIndex(slab_minutes=5.0)
        index.insert("o1", plane_for(route))
        stats = index.replace("o1", plane_for(route, starttime=3.0, x=3.0))
        assert stats.boxes_removed == 4   # 20 min / 5 min slabs
        assert stats.boxes_inserted == 4
        assert index.total_boxes() == 4

    def test_replace_moves_candidates(self, route):
        index = TimeSpaceIndex(slab_minutes=5.0)
        index.insert("o1", plane_for(route, speed=0.0, x=0.0))
        # Stationary at x=0: not a candidate far away.
        far = Rect2D(30.0, -1.0, 35.0, 1.0)
        assert index.candidates_at(far, 1.0) == set()
        index.replace("o1", plane_for(route, speed=0.0, x=32.0,
                                      starttime=1.0))
        assert index.candidates_at(far, 2.0) == {"o1"}

    def test_replace_inserts_when_missing(self, route):
        index = TimeSpaceIndex()
        stats = index.replace("new", plane_for(route))
        assert stats.boxes_removed == 0
        assert stats.boxes_inserted > 0

    def test_identical_plane_skips_tree_work(self, route):
        index = TimeSpaceIndex(slab_minutes=5.0)
        index.insert("o1", plane_for(route))
        replacement = plane_for(route)
        stats = index.replace("o1", replacement)
        assert stats == IndexMaintenanceStats(0, 0)
        # The plane record is still refreshed to the new object.
        assert index.plane_of("o1") is replacement
        window = Rect2D(0.0, -1.0, 5.0, 1.0)
        assert index.candidates_at(window, 2.0) == {"o1"}

    def test_force_overrides_skip(self, route):
        index = TimeSpaceIndex(slab_minutes=5.0)
        index.insert("o1", plane_for(route))
        stats = index.replace("o1", plane_for(route), force=True)
        assert stats.boxes_removed == 4
        assert stats.boxes_inserted == 4


class TestCandidates:
    def test_time_selectivity(self, route):
        """An object updated at t=10 is not a candidate before t=10."""
        index = TimeSpaceIndex()
        index.insert("late", plane_for(route, starttime=10.0))
        window = Rect2D(-1.0, -1.0, 41.0, 1.0)
        assert index.candidates_at(window, 5.0) == set()
        assert index.candidates_at(window, 12.0) == {"late"}

    def test_spatial_selectivity(self, route):
        index = TimeSpaceIndex(slab_minutes=2.0)
        index.insert("a", plane_for(route, speed=0.0, x=0.0))
        index.insert("b", plane_for(route, speed=0.0, x=35.0))
        near_a = index.candidates_at(Rect2D(-1, -1, 4, 1), 1.0)
        assert near_a == {"a"}

    def test_stats_populated(self, route):
        index = TimeSpaceIndex()
        for i in range(5):
            index.insert(f"o{i}", plane_for(route, x=float(i * 8)))
        stats = SearchStats()
        index.candidates_at(Rect2D(0, -1, 4, 1), 1.0, stats)
        assert stats.nodes_visited >= 1

    def test_object_ids(self, route):
        index = TimeSpaceIndex()
        index.insert("a", plane_for(route))
        index.insert("b", plane_for(route, x=5.0))
        assert sorted(index.object_ids()) == ["a", "b"]

    def test_validation(self):
        with pytest.raises(IndexError_):
            TimeSpaceIndex(slab_minutes=0.0)
        with pytest.raises(IndexError_):
            TimeSpaceIndex(slab_minutes=float("nan"))

    @pytest.mark.parametrize("tuning", [
        {"max_entries": "8"}, {"max_entries": False}, {"min_entries": 1.5},
    ])
    def test_fanout_must_be_an_int(self, tuning):
        with pytest.raises(IndexError_, match="must be an int"):
            TimeSpaceIndex(**tuning)
        database = MovingObjectDatabase()
        with pytest.raises(IndexError_, match="must be an int"):
            database.rebuild_index(**tuning)


class TestBulkBuild:
    def test_equivalent_to_incremental(self, route):
        planes = {
            f"o{i}": plane_for(route, speed=0.2 * i, x=float(i * 5))
            for i in range(8)
        }
        incremental = TimeSpaceIndex(slab_minutes=5.0)
        for object_id, plane in planes.items():
            incremental.insert(object_id, plane)
        bulk = TimeSpaceIndex.bulk_build(planes, slab_minutes=5.0)
        bulk.tree.check_invariants()
        assert len(bulk) == len(incremental) == 8
        assert bulk.total_boxes() == incremental.total_boxes()
        for window in (Rect2D(0, -1, 8, 1), Rect2D(20, -1, 40, 1)):
            for t in (1.0, 10.0, 19.0):
                assert bulk.candidates_at(window, t) == (
                    incremental.candidates_at(window, t)
                )

    def test_bulk_index_is_mutable(self, route):
        planes = {"a": plane_for(route), "b": plane_for(route, x=10.0)}
        index = TimeSpaceIndex.bulk_build(planes)
        index.replace("a", plane_for(route, x=20.0, starttime=1.0))
        index.remove("b")
        index.tree.check_invariants()
        assert len(index) == 1

    def test_empty_bulk_build(self):
        index = TimeSpaceIndex.bulk_build({})
        assert len(index) == 0
