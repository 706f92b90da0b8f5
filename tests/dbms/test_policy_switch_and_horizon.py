"""Tests for policy switching on update and index-horizon coverage."""

import pytest

from repro.core.policies import make_policy
from repro.core.serialize import policy_to_spec
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import straight_route

C = 5.0


def build(index=None, horizon=30.0):
    database = MovingObjectDatabase(index=index, horizon=horizon)
    database.schema.define_mobile_point_class("taxi")
    database.register_route(straight_route(100.0, "h1"))
    database.insert_moving_object(
        "t1", "taxi", "h1", 0.0, Point(0.0, 0.0), 0, 1.0,
        make_policy("ail", C), max_speed=1.5,
    )
    return database


class TestPolicySwitch:
    def test_switch_by_name_keeps_update_cost(self):
        db = build()
        db.process_update(
            PositionUpdateMessage("t1", 2.0, 2.0, 0.0, 1.0, policy="dl")
        )
        record = db.record("t1")
        assert record.policy.name == "dl"
        assert record.policy.update_cost == C
        assert record.attribute.policy == "dl"

    def test_switch_by_spec(self):
        db = build()
        spec = policy_to_spec(make_policy("fixed-threshold", 2.0, bound=0.7))
        db.process_update(
            PositionUpdateMessage("t1", 2.0, 2.0, 0.0, 1.0, policy=spec)
        )
        record = db.record("t1")
        assert record.policy.name == "fixed-threshold"
        assert record.policy.update_cost == 2.0
        assert record.policy.bound == 0.7

    def test_bounds_follow_the_new_policy(self):
        """Switching ail -> dl changes the error-bound shape: the dl
        bound plateaus instead of decaying."""
        db = build()
        before = db.position_of("t1", 20.0)
        # ail bound at t=20: 2C/t = 0.5.
        assert before.error_bound == pytest.approx(0.5)
        db.process_update(
            PositionUpdateMessage("t1", 20.0, 20.0, 0.0, 1.0, policy="dl")
        )
        after = db.position_of("t1", 40.0)
        # dl bound 20 min after its update: plateau sqrt(2*1*5) = 3.162.
        assert after.error_bound == pytest.approx(10.0 ** 0.5, rel=1e-6)

    def test_no_policy_field_keeps_current(self):
        db = build()
        db.process_update(PositionUpdateMessage("t1", 2.0, 2.0, 0.0, 1.0))
        assert db.record("t1").policy.name == "ail"


class TestIndexHorizonCoverage:
    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_horizon_rejected(self, horizon):
        # NaN would index no slab at all; +inf would lay slabs forever.
        with pytest.raises(QueryError, match="finite"):
            MovingObjectDatabase(index=TimeSpaceIndex(), horizon=horizon)

    def test_query_beyond_horizon_rejected(self):
        db = build(index=TimeSpaceIndex(), horizon=30.0)
        region = Polygon.rectangle(0.0, -1.0, 50.0, 1.0)
        # Inside coverage: fine.
        db.range_query(region, 29.0)
        with pytest.raises(QueryError):
            db.range_query(region, 31.0)
        with pytest.raises(QueryError):
            db.within_distance(Point(0, 0), 5.0, 31.0)

    def test_coverage_follows_updates(self):
        db = build(index=TimeSpaceIndex(), horizon=30.0)
        db.process_update(PositionUpdateMessage("t1", 10.0, 10.0, 0.0, 1.0))
        region = Polygon.rectangle(0.0, -1.0, 50.0, 1.0)
        # The plane now spans [10, 40]: t=35 is answerable.
        db.range_query(region, 35.0)
        with pytest.raises(QueryError):
            db.range_query(region, 41.0)

    def test_scan_database_unaffected(self):
        db = build(index=None, horizon=30.0)
        region = Polygon.rectangle(0.0, -1.0, 120.0, 1.0)
        # No index: any future time is answerable directly.
        answer = db.range_query(region, 100.0)
        assert "t1" in answer.may
