"""Stateful differential test: one naive model against every index layout.

A hypothesis ``RuleBasedStateMachine`` drives one random sequence of
inserts (mobile and stationary), updates (speed-only, route- and
direction-changing, policy-changing), removes, re-inserts, index
rebuilds, snapshot round-trips and queries (all five kinds,
``where``/``class_name`` filters, batched and one at a time, the two
interleaved over each database's one shared cache) into

* the **model** — the record tables of a ``MovingObjectDatabase(
  index=None)`` read by ``tests/oracle/query_reference.py``: every query
  scans every record and derives every value afresh; nothing is cached,
  pre-tested or partitioned; and
* the **subjects** — sharded databases over {``TimeSpaceIndex``,
  ``LinearScanIndex``} x {1, 7} shards, each batched by one long-lived
  engine, and the model database's own query core,

and holds, after every step: answers equal the reference's over the
same database, and answer digests equal across layouts wherever they
promise it (everything but ``examined``/``candidates`` against the
model; those two as well among subjects over the same index class, and
against the model for the scan class), ``must`` inside ``may``
(Theorems 5-6), one index entry and exactly one owner per mobile id —
the shard of its start point at its first insert (or at a snapshot
load), dropped on removal — and a derived-value cache that holds only
what can still be asked: entries of present objects, derived from
their current position attribute, for times the clock has not passed.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.policies import make_policy
from repro.core.serialize import policy_to_spec
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    ProximityQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.persistence import database_from_dict, database_to_dict
from repro.dbms.schema import AttributeDef, Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import SchemaError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.index.scan import LinearScanIndex
from repro.index.timespace import TimeSpaceIndex
from repro.routes.route import Route
from repro.shard import uniform_grid_for
from repro.trace.events import answer_digest
from tests.conftest import examples
from tests.dbms.test_batch import one_at_a_time
from tests.oracle import query_reference as reference
from tests.oracle.query_reference import sequential

BOUNDS = Rect2D(0.0, 0.0, 4.0, 4.0)
ROUTES = [
    Route("west-east", Polyline([Point(0.0, 1.0), Point(4.0, 1.0)])),
    Route("south-north", Polyline([Point(3.0, 0.0), Point(3.0, 4.0)])),
    Route("diagonal", Polyline([Point(0.0, 0.0), Point(2.0, 2.0),
                                Point(4.0, 4.0)])),
    Route("corner", Polyline([Point(0.5, 3.5), Point(0.5, 2.5),
                              Point(1.5, 2.5)])),
    Route("dog-leg", Polyline([Point(1.0, 0.2), Point(1.0, 3.0),
                               Point(3.8, 3.0)])),
]
MOBILE_IDS = [f"m{i}" for i in range(6)]
STATIONARY_IDS = [f"s{i}" for i in range(3)]

routes = st.sampled_from(ROUTES)
fractions = st.floats(0.0, 1.0)
speeds = st.floats(0.0, 0.5)
coords = st.floats(-0.5, 4.5)
policies = st.builds(make_policy, st.sampled_from(["dl", "ail", "cil"]),
                     st.floats(0.5, 8.0))
filters = st.sampled_from([
    {}, {"class_name": "taxi"}, {"class_name": "depot"},
    {"where": {"free": True}},
    {"where": {"free": False}, "class_name": "truck"},
])
polygons = st.one_of(
    st.builds(lambda x, y, w, h: Polygon.rectangle(x, y, x + w, y + h),
              coords, coords, st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    st.builds(lambda x, y, s: Polygon.from_coordinates(
        [(x, y), (x + s, y), (x, y + s)]),
        coords, coords, st.floats(0.5, 3.0)),
)
centers = st.builds(Point, coords, coords)
radii = st.floats(0.0, 2.5)
OFFSETS = [0.0, 0.5, 3.0]
offsets = st.sampled_from(OFFSETS)


def without_scan_fields(answer):
    """A range answer's layout-independent part."""
    return (answer.time, answer.may, answer.must)


class Subject:
    """One sharded database and its long-lived batch engine."""

    def __init__(self, inner, shards):
        self.name = f"{inner.__name__}x{shards}"
        self.inner = inner
        self.plan = uniform_grid_for(BOUNDS, shards)
        self.attach(MovingObjectDatabase(index=inner(),
                                         partitioning=self.plan))

    def attach(self, database):
        """Adopt ``database`` (new, or loaded from a snapshot)."""
        #: The scan reports its whole population (until a rebuild swaps
        #: the real index in): ``examined``/``candidates`` then equal
        #: the model's.
        self.scans = self.inner is LinearScanIndex
        self.database = database
        self.engine = BatchQueryEngine(database)


class PartitionedDatabaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = MovingObjectDatabase(index=None)
        self.model_engine = BatchQueryEngine(self.model)
        self.subjects = [
            Subject(inner, shards)
            for inner in (TimeSpaceIndex, LinearScanIndex)
            for shards in (1, 7)
        ]
        #: Mobile id -> the start point its owner is the shard of.
        self.owned_at = {}
        for database in self.databases():
            database.schema.define_mobile_point_class(
                "taxi", (AttributeDef("free", "bool"),))
            database.schema.define_mobile_point_class(
                "truck", (AttributeDef("free", "bool"),))
            database.schema.define(
                ObjectClass("depot", SpatialKind.POINT, Mobility.STATIONARY))
            for route in ROUTES:
                database.register_route(route)
        self.now = 0.0

    def databases(self):
        return [self.model] + [subject.database for subject in self.subjects]

    def mobile(self):
        return self.model.object_ids()

    # -- writes ---------------------------------------------------------

    @rule(dt=st.floats(0.1, 2.0))
    def advance_clock(self, dt):
        self.now += dt

    @rule(object_id=st.sampled_from(MOBILE_IDS),
          class_name=st.sampled_from(["taxi", "truck"]), route=routes,
          fraction=fractions, direction=st.sampled_from([0, 1]),
          speed=speeds, policy=policies, free=st.booleans())
    def insert_mobile(self, object_id, class_name, route, fraction,
                      direction, speed, policy, free):
        position = route.travel_point(fraction * route.length, direction)
        arguments = (object_id, class_name, route.route_id, self.now,
                     position, direction, speed, policy)
        if object_id in self.mobile():
            for database in self.databases():
                try:
                    database.insert_moving_object(*arguments, max_speed=0.6)
                except SchemaError:
                    continue
                raise AssertionError("duplicate id accepted")
            return
        for database in self.databases():
            database.insert_moving_object(
                *arguments, max_speed=0.6, attributes={"free": free})
        self.owned_at[object_id] = position

    @rule(object_id=st.sampled_from(STATIONARY_IDS), x=coords, y=coords)
    def insert_stationary(self, object_id, x, y):
        if object_id in self.model.stationary_ids():
            # A mobile insert may not shadow it, on any layout.
            route = ROUTES[0]
            for database in self.databases():
                try:
                    database.insert_moving_object(
                        object_id, "taxi", route.route_id, self.now,
                        route.travel_point(0.0, 0), 0, 0.1,
                        make_policy("dl", 5.0), max_speed=0.6)
                except SchemaError:
                    continue
                raise AssertionError("stationary id shadowed")
            return
        for database in self.databases():
            database.insert_stationary_object(object_id, "depot", Point(x, y))

    @rule(data=st.data())
    def remove(self, data):
        known = self.mobile() + self.model.stationary_ids()
        if not known:
            return
        object_id = data.draw(st.sampled_from(sorted(known)))
        for database in self.databases():
            database.remove_object(object_id)

    def _install(self, object_id, **fields):
        for database in self.databases():
            database.process_update(
                PositionUpdateMessage(object_id, self.now, **fields))

    def _some_mobile(self, data):
        """A present mobile id, or ``None`` while there is none."""
        mobile = self.mobile()
        return data.draw(st.sampled_from(mobile)) if mobile else None

    @rule(data=st.data(), speed=speeds)
    def update_speed_only(self, data, speed):
        object_id = self._some_mobile(data)
        if object_id is None:
            return
        record = self.model.record(object_id)
        route = self.model.routes.get(record.attribute.route_id)
        position = record.database_position(route, self.now)
        self._install(object_id, x=position.x, y=position.y, speed=speed)

    @rule(data=st.data(), route=routes, fraction=fractions,
          direction=st.sampled_from([0, 1]), speed=speeds)
    def update_route_and_direction(self, data, route, fraction, direction,
                                   speed):
        object_id = self._some_mobile(data)
        if object_id is None:
            return
        position = route.travel_point(fraction * route.length, direction)
        self._install(object_id, x=position.x, y=position.y, speed=speed,
                      route_id=route.route_id, direction=direction)

    @rule(data=st.data(), policy=policies, by_name=st.booleans())
    def update_policy(self, data, policy, by_name):
        object_id = self._some_mobile(data)
        if object_id is None:
            return
        record = self.model.record(object_id)
        route = self.model.routes.get(record.attribute.route_id)
        position = record.database_position(route, self.now)
        self._install(
            object_id, x=position.x, y=position.y,
            speed=record.attribute.speed,
            policy=policy.name if by_name else policy_to_spec(policy))

    @rule(slab_minutes=st.sampled_from([2.5, 5.0, 10.0]))
    def rebuild_index(self, slab_minutes):
        for subject in self.subjects:
            assert subject.database.rebuild_index(
                slab_minutes=slab_minutes) is subject.database._index
            subject.scans = False

    @rule()
    def snapshot_round_trip(self):
        """Every subject is saved and loaded over a fresh index; a load
        inserts each object at its current start point."""
        for subject in self.subjects:
            subject.attach(database_from_dict(
                database_to_dict(subject.database),
                index=subject.inner(), partitioning=subject.plan))
        self.owned_at = {
            object_id: self.model.record(object_id).attribute.start_point
            for object_id in self.mobile()}

    # -- reads ----------------------------------------------------------

    def _compare_ranges(self, answers, expected):
        """``answers[i]`` is subject ``i``'s list of range answers."""
        tree_reference = None
        for subject, got in zip(self.subjects, answers):
            for mine, theirs in zip(got, expected):
                assert mine.must <= mine.may, subject.name
                assert (without_scan_fields(mine)
                        == without_scan_fields(theirs)), subject.name
                assert mine.may <= mine.candidates | frozenset(
                    self.model.stationary_ids()), subject.name
            digests = [answer_digest(answer) for answer in got]
            if subject.scans:
                assert digests == [answer_digest(a) for a in expected], \
                    subject.name
            elif tree_reference is None:
                tree_reference = digests
            else:
                assert digests == tree_reference, subject.name

    @rule(polygon=polygons, center=centers, radius=radii, offset=offsets,
          selection=filters, k=st.integers(1, 4), data=st.data())
    def query_one_at_a_time(self, polygon, center, radius, offset,
                            selection, k, data):
        t = self.now + offset
        calls = [
            lambda db: db.range_query(polygon, t, **selection),
            lambda db: db.within_distance(center, radius, t, **selection),
        ]
        queries = [RangeQuery(polygon, t, **selection),
                   WithinDistanceQuery(center, radius, t, **selection)]
        anchor = self._some_mobile(data)
        if anchor is not None:
            queries.append(ProximityQuery(anchor, radius, t, **selection))
            expected = reference.position_of(self.model, anchor, t)
            for database in self.databases():
                assert database.position_of(anchor, t) == reference.position_of(
                    database, anchor, t)
                assert (answer_digest(database.position_of(anchor, t))
                        == answer_digest(expected))
        expected = sequential(self.model, queries)
        assert one_at_a_time(self.model, queries) == expected
        answers = []
        for subject in self.subjects:
            answers.append(one_at_a_time(subject.database, queries))
            assert answers[-1] == sequential(subject.database, queries), \
                subject.name
        self._compare_ranges(answers, expected)
        nearest = reference.nearest(self.model, center, k, t, **selection)
        for database in self.databases():
            got = database.nearest(center, k, t, **selection)
            assert got == reference.nearest(
                database, center, k, t, **selection)
            assert answer_digest(got) == answer_digest(nearest)

    @rule(offset=offsets, data=st.data(),
          shapes=st.lists(st.tuples(polygons, filters), max_size=3),
          circles=st.lists(st.tuples(centers, radii, filters), max_size=3),
          strips=st.lists(st.tuples(radii, filters), max_size=2))
    def query_batch(self, offset, data, shapes, circles, strips):
        t = self.now + offset
        queries = [RangeQuery(polygon, t, **selection)
                   for polygon, selection in shapes]
        queries += [WithinDistanceQuery(center, radius, t, **selection)
                    for center, radius, selection in circles]
        if self.mobile():
            queries += [
                PositionQuery(object_id, t) for object_id in data.draw(
                    st.lists(st.sampled_from(self.mobile()), max_size=2))
            ]
            queries += [
                ProximityQuery(self._some_mobile(data), radius, t,
                               **selection)
                for radius, selection in strips
            ]
        queries = data.draw(st.permutations(queries))
        if not queries:
            return
        expected = sequential(self.model, queries)
        assert self.model_engine.run(queries) == expected
        ranges = [i for i, query in enumerate(queries)
                  if not isinstance(query, PositionQuery)]
        # The batch, the same queries singly, the batch again: callers
        # of one database's cache, interleaved.
        for _ in range(2):
            answers = []
            for subject in self.subjects:
                got = subject.engine.run(queries)
                assert got == sequential(subject.database, queries), \
                    subject.name
                assert got == one_at_a_time(subject.database, queries), \
                    subject.name
                for i, query in enumerate(queries):
                    if isinstance(query, PositionQuery):
                        assert (answer_digest(got[i])
                                == answer_digest(expected[i])), subject.name
                answers.append([got[i] for i in ranges])
            self._compare_ranges(answers, [expected[i] for i in ranges])

    # -- layout and cache invariants ------------------------------------

    @invariant()
    def cache_holds_only_what_can_be_asked(self):
        for database in self.databases():
            core = database._core
            held = 0
            for t, bucket in core._derived.items():
                assert t >= database.clock_time - 1e-9
                held += len(bucket)
                for object_id, entry in bucket.items():
                    assert entry[0] is database.record(object_id).attribute
            assert core.size() == held
            assert sorted(core._times) == sorted(core._derived)
            assert set(core._bounds) <= set(database.object_ids())

    @invariant()
    def one_owner(self):
        mobile = self.mobile()
        for subject in self.subjects:
            database = subject.database
            # A snapshot loads records in starttime order.
            assert sorted(database.object_ids()) == sorted(mobile), \
                subject.name
            assert len(database._index) == len(mobile), subject.name
            assert sorted(database._owner) == sorted(mobile), subject.name
            for object_id in mobile:
                point = self.owned_at[object_id]
                assert database.owner_of(object_id) == \
                    subject.plan.shard_of_point(point.x, point.y), \
                    subject.name


TestPartitionedDatabase = PartitionedDatabaseMachine.TestCase
TestPartitionedDatabase.settings = settings(
    max_examples=examples(25), stateful_step_count=25, deadline=None,
    suppress_health_check=list(HealthCheck),
)
