"""The time-space index stores one box per run of slabs, and nothing moves.

``TimeSpaceIndex`` stores each maximal run of consecutive slab boxes
that share a rectangle (``OPlane.runs``) as one tree entry.  The slab
boxes are the frozen per-sample reference of
``tests/index/test_oplane_bounds.py``.  Generated o-planes — on grid
routes short enough to end before the horizon, declared speed 0 drawn
often, every registered policy, slabs of 1 to 20 minutes and horizons
that are not a multiple of the slab — go through insert / replace /
remove sequences, on an index grown one plane at a time and on one
bulk-built first.  After every sequence:

* the tree holds exactly the maximal runs of each object's slab boxes;
* ``candidates_at`` and ``candidates_at_many`` equal a brute force over
  the *slab* boxes, at slab edges, run edges, plane starts, horizon ends
  and random times;
* ``content_digest()`` equals the slab-level formula (one entry per
  slab box, as the tree stored them before runs), written out below;
* the tree's structural invariants hold.
"""

from __future__ import annotations

import hashlib
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import bounds_for_policy
from repro.core.policies import make_policy, policy_names
from repro.core.position import PositionAttribute
from repro.geometry.bbox import Box3D, Rect2D
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane, slab_grid
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.routes.route import Route
from tests.conftest import examples
from tests.index.test_oplane_bounds import maximal_runs, reference_boxes

NETWORK = grid_city_network(8, 8, 0.25)
OBJECTS = ["o0", "o1", "o2", "o3"]


@st.composite
def planes(draw, horizon: float) -> OPlane:
    route = NETWORK.random_route(random.Random(draw(st.integers(0, 2**16))),
                                 min_length=0.5)
    direction = draw(st.integers(0, 1))
    speed = draw(st.one_of(st.just(0.0), st.just(0.0),
                           st.floats(min_value=0.05, max_value=0.6)))
    travel = draw(st.one_of(st.sampled_from([0.0, route.length]),
                            st.floats(min_value=0.0, max_value=route.length)))
    start = route.travel_point(travel, direction)
    kind = draw(st.sampled_from(policy_names()))
    cost = draw(st.sampled_from([0.0, 0.18, 1.0, 5.0]))
    max_speed = draw(st.sampled_from([speed, speed * 1.6, 0.2, 1.0]))
    return OPlane(
        PositionAttribute(
            starttime=draw(st.sampled_from([0.0, 2.5, 7.0])),
            route_id=route.route_id, start_x=start.x, start_y=start.y,
            direction=direction, speed=speed, policy=kind),
        route,
        bounds_for_policy(make_policy(kind, cost), speed, max_speed),
        horizon=horizon,
    )


@st.composite
def scenarios(draw):
    """``(slab_minutes, initial planes, operations)``."""
    slab = float(draw(st.integers(1, 20)))
    fraction = draw(st.one_of(st.sampled_from([0.5, 0.37]),
                              st.floats(min_value=0.01, max_value=0.99)))
    horizon = slab * (draw(st.integers(0, 4)) + fraction)
    initial = {object_id: draw(planes(horizon)) for object_id in
               draw(st.lists(st.sampled_from(OBJECTS), unique=True))}
    operations = draw(st.lists(st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(OBJECTS),
                  planes(horizon), st.booleans()),
        st.tuples(st.just("remove"), st.sampled_from(OBJECTS)),
    ), max_size=8))
    return slab, initial, operations


def key(box: Box3D) -> tuple[float, ...]:
    return (box.min_x, box.min_y, box.min_t, box.max_x, box.max_y, box.max_t)


def slab_digest(slabs: dict[str, list[Box3D]]) -> str:
    """``RTree.content_digest`` of a tree holding one box per slab."""
    entries = sorted((key(box), repr(object_id))
                     for object_id, boxes in slabs.items() for box in boxes)
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def apply(index: TimeSpaceIndex, model: dict[str, OPlane],
          operation: tuple) -> None:
    if operation[0] == "insert":
        _, object_id, plane, force = operation
        index.replace(object_id, plane, force=force)
        model[object_id] = plane
    elif operation[1] in model:
        index.remove(operation[1])
        del model[operation[1]]


def check_content(index: TimeSpaceIndex, model: dict[str, OPlane],
                  slab: float) -> dict[str, list[Box3D]]:
    """The tree holds the maximal runs and digests as the slabs; returns
    each object's slab boxes."""
    index.tree.check_invariants()
    slabs = {object_id: reference_boxes(plane, slab)
             for object_id, plane in model.items()}
    stored = sorted((repr(key(box)), object_id)
                    for box, object_id in index.tree.items())
    expected = sorted((repr(key(run)), object_id)
                      for object_id, boxes in slabs.items()
                      for run in maximal_runs(boxes))
    assert stored == expected
    assert index.total_boxes() == len(expected)
    assert index.content_digest() == slab_digest(slabs)
    return slabs


def check(index: TimeSpaceIndex, model: dict[str, OPlane], slab: float,
          data) -> None:
    """:func:`check_content`, and every window's candidates are the
    objects with a slab box that meets it."""
    slabs = check_content(index, model, slab)
    every = [box for boxes in slabs.values() for box in boxes]
    times = [0.0, 50.0]
    for object_id, plane in model.items():
        times += [plane.start_time, plane.start_time + plane.horizon]
        times += [t for run in maximal_runs(slabs[object_id])
                  for t in (run.min_t, run.max_t)]
        times += [box.min_t for box in slabs[object_id]]
    regions = [Rect2D(-0.1, -0.1, 1.1, 1.1)]
    regions += [box.rect for box in every]
    regions += [Rect2D(box.max_x, box.max_y, box.max_x + 0.1,
                       box.max_y + 0.1) for box in every]
    windows = [(region, data.draw(st.one_of(
                   st.sampled_from(times),
                   st.floats(min_value=-1.0, max_value=50.0))))
               for region in regions]
    expected_sets = [
        {object_id for object_id, boxes in slabs.items()
         if any(box.intersects(Box3D.from_rect(region, t, t))
                for box in boxes)}
        for region, t in windows
    ]
    assert [index.candidates_at(region, t)
            for region, t in windows] == expected_sets
    assert index.candidates_at_many(windows) == expected_sets


@settings(max_examples=examples(40), deadline=None)
@given(scenarios(), st.data())
def test_runs_answer_as_the_slabs_do(scenario, data):
    slab, initial, operations = scenario
    grown = TimeSpaceIndex(slab_minutes=slab, max_entries=4, min_entries=2)
    grown_model: dict[str, OPlane] = {}
    for object_id, plane in initial.items():
        apply(grown, grown_model, ("insert", object_id, plane, False))
    packed = TimeSpaceIndex.bulk_build(initial, slab_minutes=slab,
                                       max_entries=4, min_entries=2)
    packed_model = dict(initial)
    check(packed, packed_model, slab, data)
    for operation in operations:
        apply(grown, grown_model, operation)
        apply(packed, packed_model, operation)
        check_content(grown, grown_model, slab)
        check_content(packed, packed_model, slab)
    check(grown, grown_model, slab, data)
    check(packed, packed_model, slab, data)


def test_a_plane_past_its_route_end_is_one_run_per_rectangle():
    """A stationary object at the end of its route: every slab clamps to
    one stub, so its 24 slabs are stored as one box."""
    route = NETWORK.random_route(random.Random(0), min_length=0.25)
    end = route.travel_point(route.length, 0)
    plane = OPlane(
        PositionAttribute(starttime=0.0, route_id=route.route_id,
                          start_x=end.x, start_y=end.y, direction=0,
                          speed=0.0, policy="dl"),
        route, bounds_for_policy(make_policy("dl", 0.0), 0.0, 0.0),
        horizon=120.0)
    index = TimeSpaceIndex(slab_minutes=5.0)
    assert len(reference_boxes(plane, 5.0)) == 24
    assert index.insert("o", plane) == 1
    assert index.content_digest() == slab_digest(
        {"o": reference_boxes(plane, 5.0)})
    assert index.remove("o") == 1
    assert index.total_boxes() == 0


class Runs:
    """A stand-in plane whose runs are given, not derived: it starts at
    0 and spans ``slabs`` slabs, and its slab rectangles are its runs'.
    """

    def __init__(self, runs: list[Box3D], slabs: int) -> None:
        self._runs = runs
        self.start_time = 0.0
        self.horizon = 5.0 * slabs

    def runs(self, slab_minutes: float) -> list[Box3D]:
        return self._runs

    def slab_rects(self, slab_minutes: float):
        edges = slab_grid(self.horizon, slab_minutes)[0]
        return edges, [(run.rect, edges.index(run.min_t))
                       for run in self._runs]


def test_a_rectangle_that_returns_is_a_new_run():
    """Rectangles A A B A: three runs.  The digest expands each run into
    only its own slabs (not the later A), and a lost or stray tree entry
    still changes it."""
    a, b = (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 2.0, 1.0)
    spans = [(a, 0.0, 5.0), (a, 5.0, 10.0), (b, 10.0, 15.0),
             (a, 15.0, 20.0)]
    slabs = [Box3D(r[0], r[1], lo, r[2], r[3], hi) for r, lo, hi in spans]
    runs = [(a, 0.0, 10.0), (b, 10.0, 15.0), (a, 15.0, 20.0)]
    index = TimeSpaceIndex()
    assert index.insert("o", Runs(
        [Box3D(r[0], r[1], lo, r[2], r[3], hi) for r, lo, hi in runs],
        len(slabs))) == 3
    assert sorted(key(box) for box, _ in index.tree.items()) == sorted(
        (r[0], r[1], lo, r[2], r[3], hi) for r, lo, hi in runs)
    digest = index.content_digest()
    assert digest == slab_digest({"o": slabs})
    assert index.candidates_at(Rect2D(1.5, 0.0, 2.0, 1.0), 16.0) == set()
    assert index.candidates_at(Rect2D(1.5, 0.0, 2.0, 1.0), 15.0) == {"o"}
    stray = Box3D(5.0, 5.0, 0.0, 6.0, 6.0, 1.0)
    index.tree.insert(stray, "o")
    assert index.content_digest() != digest
    index.tree.delete(stray, "o")
    assert index.content_digest() == digest
    index.tree.delete(Box3D(*b[:2], 10.0, *b[2:], 15.0), "o")
    assert index.content_digest() != digest


def test_the_digest_hashes_each_slabs_own_bits():
    """A route that starts at ``y = -0.0`` and has a vertex at
    ``y = 0.0``.  The plane's first slab spans the whole route, so its
    rectangle tops out at the start's ``-0.0`` (``max`` keeps the first
    of equal values); the second slab starts past the start, and tops
    out at the vertex's ``0.0``.  The two rectangles are ``==``, so they
    form one run, stored with the first slab's bits.  The digest still
    hashes each slab with its own rectangle's bits, as a tree of one box
    per slab would."""
    route = Route("z", Polyline([Point(-1e-10, -0.0), Point(-1.0, -1.0),
                                 Point(-0.5, 0.0), Point(-0.0, -1e-10)]))
    start = route.travel_point(0.0, 0)
    plane = OPlane(
        PositionAttribute(starttime=0.0, route_id="z", start_x=start.x,
                          start_y=start.y, direction=0, speed=0.5,
                          policy="dl"),
        route, bounds_for_policy(make_policy("fixed-threshold", 0.18),
                                 0.5, 1.0),
        horizon=10.0)
    slabs = reference_boxes(plane, 5.0)
    assert [math.copysign(1.0, box.max_y) for box in slabs] == [-1.0, 1.0]
    assert len(plane.runs(5.0)) == 1
    index = TimeSpaceIndex(slab_minutes=5.0)
    index.insert("o", plane)
    assert index.content_digest() == slab_digest({"o": slabs})
    assert index.content_digest() != slab_digest(
        {"o": [Box3D.from_rect(slabs[0].rect, box.min_t, box.max_t)
               for box in slabs]})
