"""Non-finite horizons and scan steps in the reach-time queries.

``when_may_reach`` / ``when_must_reach`` scan forward from the last
update at ``step`` minutes up to ``until``.  An infinite horizon or a
zero step never ends the scan, a NaN in either ends it with an answer
nobody asked for, a negative step walks back before the update, and an
infinite one jumps from the update straight to the horizon.
Each is a :class:`~repro.errors.QueryError` before any scanning, for a
region far ahead of the object and for one already covering it.
"""

import math

import pytest

from repro.core.policies import make_policy
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.trajectory import when_may_reach, when_must_reach
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.routes.generators import straight_route
from tests.conftest import deadline

#: Seconds a rejected input may take; the scans it replaces never end.
DEADLINE_S = 2.0

REGIONS = {
    "distant": Polygon.rectangle(90.0, -1.0, 95.0, 1.0),
    "covering": Polygon.rectangle(-50.0, -50.0, 50.0, 50.0),
}

BAD_INPUTS = [
    pytest.param({"until": math.inf}, id="until-inf"),
    pytest.param({"until": math.nan}, id="until-nan"),
    pytest.param({"until": 60.0, "step": 0.0}, id="step-0"),
    pytest.param({"until": 60.0, "step": -1.0}, id="step-neg"),
    pytest.param({"until": 60.0, "step": math.nan}, id="step-nan"),
    pytest.param({"until": 60.0, "step": math.inf}, id="step-inf"),
]


@pytest.fixture(scope="module")
def db():
    database = MovingObjectDatabase(horizon=120.0)
    database.schema.define_mobile_point_class("heli")
    database.register_route(straight_route(100.0, "corridor"))
    database.insert_moving_object(
        "h1", "heli", "corridor", 0.0, Point(0.0, 0.0), 0,
        speed=1.0, policy=make_policy("dl", 5.0), max_speed=1.5,
    )
    return database


@pytest.mark.parametrize("query", [when_may_reach, when_must_reach],
                         ids=["may", "must"])
@pytest.mark.parametrize("region", sorted(REGIONS))
@pytest.mark.parametrize("arguments", BAD_INPUTS)
def test_a_non_finite_scan_is_a_query_error(db, query, region, arguments):
    with deadline(DEADLINE_S), pytest.raises(QueryError):
        query(db, "h1", REGIONS[region], **arguments)
