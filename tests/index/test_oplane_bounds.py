"""One bound check per o-plane, every sample unchanged.

``OPlane.runs`` evaluates the slow and fast bounds at every sampled
slab's ``samples + 1`` elapsed times through one
``DeviationBounds.sample`` call, which checks ``elapsed >= 0`` once for
them all, and returns one box per maximal run of slabs that share a
rectangle.  Its runs must equal — as packed bytes, so ``-0.0`` is not
``0.0`` — the maximal runs of the slab boxes built from the travel range
as it was, asking ``bounds.slow`` / ``bounds.fast`` sample by sample
(:func:`reference_boxes`); and a negative elapsed time must still be
refused with :class:`PolicyError`.
"""

from __future__ import annotations

import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import DeviationBounds, bounds_for_policy
from repro.core.cost import StepDeviationCost
from repro.core.policies import make_policy, policy_names
from repro.core.position import PositionAttribute
from repro.errors import IndexError_, PolicyError
from repro.geometry.bbox import Box3D
from repro.index.oplane import OPlane, slab_grid
from repro.routes.generators import grid_city_network
from tests.conftest import examples

NETWORK = grid_city_network(10, 10, 0.25)


def reference_travel_range(plane: OPlane, start_travel: float,
                           elapsed_lo: float, elapsed_hi: float,
                           samples: int = 4) -> tuple[float, float]:
    """The travel range with one bound call per sample (frozen)."""
    v = plane.attribute.speed
    lows: list[float] = []
    highs: list[float] = []
    for i in range(samples + 1):
        elapsed = elapsed_lo + (elapsed_hi - elapsed_lo) * i / samples
        center = start_travel + v * elapsed
        lows.append(center - plane.bounds.slow(elapsed))
        highs.append(center + plane.bounds.fast(elapsed))
    margin = v * (elapsed_hi - elapsed_lo) / max(samples, 1)
    lo = max(min(lows) - margin, 0.0)
    hi = min(max(highs) + margin, plane.route.length)
    if lo > hi:
        lo = hi
    return lo, hi


def reference_boxes(plane: OPlane, slab_minutes: float) -> list[Box3D]:
    boxes = []
    start_travel = plane._start_travel()
    elapsed = 0.0
    while elapsed < plane.horizon - 1e-12:
        slab_end = min(elapsed + slab_minutes, plane.horizon)
        lo, hi = reference_travel_range(plane, start_travel, elapsed,
                                        slab_end)
        rect = plane.route.interval_rect(lo, hi, plane.attribute.direction)
        boxes.append(Box3D.from_rect(
            rect, plane.start_time + elapsed, plane.start_time + slab_end))
        elapsed = slab_end
    return boxes


def maximal_runs(slabs: list[Box3D]) -> list[Box3D]:
    """Consecutive slabs with one rectangle, as one box over their time."""
    runs = []
    for _, group in itertools.groupby(
            slabs, lambda b: (b.min_x, b.min_y, b.max_x, b.max_y)):
        group = list(group)
        assert all(a.max_t == b.min_t for a, b in zip(group, group[1:]))
        first = group[0]
        runs.append(Box3D(first.min_x, first.min_y, first.min_t,
                          first.max_x, first.max_y, group[-1].max_t))
    return runs


def reference_runs(plane: OPlane, slab_minutes: float) -> list[Box3D]:
    return maximal_runs(reference_boxes(plane, slab_minutes))


def box_bits(boxes: list[Box3D]) -> list[bytes]:
    return [struct.pack("6d", b.min_x, b.min_y, b.min_t,
                        b.max_x, b.max_y, b.max_t) for b in boxes]


def seeded_plane(seed: int) -> OPlane:
    """A plane on a grid route under any registered policy's bounds."""
    rng = random.Random(seed)
    route = NETWORK.random_route(rng, min_length=1.0)
    direction = rng.randrange(2)
    speed = rng.choice([0.0, rng.uniform(0.2, 0.6)])
    start = route.travel_point(
        rng.choice([0.0, rng.uniform(0.0, route.length)]), direction)
    kind = rng.choice(sorted(policy_names()))
    return OPlane(
        PositionAttribute(
            starttime=rng.choice([0.0, 7.5]), route_id=route.route_id,
            start_x=start.x, start_y=start.y, direction=direction,
            speed=speed, policy=kind),
        route,
        bounds_for_policy(make_policy(kind, rng.choice([0.0, 5.0])),
                          speed, rng.choice([speed, speed * 1.6, 1.0])),
        horizon=rng.choice([120.0, 42.0, 0.7]),
    )


@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       slab_minutes=st.sampled_from([5.0, 3.3, 0.25]))
def test_boxes_equal_the_per_sample_reference(seed, slab_minutes):
    plane = seeded_plane(seed)
    assert box_bits(plane.runs(slab_minutes)) == box_bits(
        reference_runs(plane, slab_minutes))


@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lo=st.floats(min_value=0.0, max_value=200.0),
       width=st.floats(min_value=0.0, max_value=50.0),
       samples=st.integers(1, 9))
def test_travel_range_equals_the_per_sample_reference(seed, lo, width,
                                                      samples):
    plane = seeded_plane(seed)
    start_travel = plane._start_travel()
    got = plane.travel_range(lo, lo + width, samples)
    expected = reference_travel_range(plane, start_travel, lo, lo + width,
                                      samples)
    assert struct.pack("2d", *got) == struct.pack("2d", *expected)


@pytest.mark.parametrize("seed", range(8))
def test_negative_elapsed_time_still_raises(seed):
    plane = seeded_plane(seed)
    with pytest.raises(PolicyError, match="elapsed time"):
        plane.travel_range(-1.0, 2.0)
    with pytest.raises(PolicyError, match="elapsed time"):
        plane.bounds.sample([0.0, 1.0, -1e-12])


def test_no_times_no_check():
    """No instants evaluate no bound; a NaN horizon, which would lay no
    slab, is refused when the plane is built."""
    plane = seeded_plane(0)
    assert plane.bounds.sample([]) == ([], [])
    with pytest.raises(IndexError_, match="finite"):
        OPlane(plane.attribute, plane.route, plane.bounds,
               horizon=float("nan"))


# ----------------------------------------------------------------------
# Planes that pass their route's end
# ----------------------------------------------------------------------
#
# ``OPlane.runs`` samples only the slabs before the route-end screen's
# and gives every later one ``(L, L)``.  These planes reach the end
# early and stay there: a start at ``L``, speeds ``0`` and ``1e-300``,
# every family (periodic, the horizon policy under step cost and a
# hand-built ``DeviationBounds`` have no ceiling and sample every
# slab), horizons far beyond the trip and slab widths that do not
# divide them.

#: Families beyond the registry: the horizon policy's zero trigger and
#: non-uniform cost, and bounds built by hand, without a ceiling.
EXTRA_KINDS = ["horizon-free", "horizon-step", "custom"]


def route_end_bounds(kind: str, cost: float, speed: float,
                     max_speed: float):
    if kind == "custom":
        ail = bounds_for_policy(make_policy("ail", cost), speed, max_speed)
        return DeviationBounds(ail.slow, ail.fast)
    if kind == "horizon-free":
        return bounds_for_policy(make_policy("horizon", 0.0), speed,
                                 max_speed)
    if kind == "horizon-step":
        return bounds_for_policy(
            make_policy("horizon", cost,
                        cost_function=StepDeviationCost(0.5)),
            speed, max_speed)
    return bounds_for_policy(make_policy(kind, cost), speed, max_speed)


def route_end_plane(seed: int) -> OPlane:
    rng = random.Random(seed)
    route = NETWORK.random_route(rng, min_length=1.0)
    direction = rng.randrange(2)
    speed = rng.choice([0.0, 1e-300, rng.uniform(0.2, 0.6), 2.0])
    travel = rng.choice([route.length, route.length - 1e-9,
                         rng.uniform(0.0, route.length), 0.0])
    start = route.travel_point(travel, direction)
    kind = rng.choice(sorted(policy_names()) + EXTRA_KINDS)
    return OPlane(
        PositionAttribute(
            starttime=rng.choice([0.0, 7.5]), route_id=route.route_id,
            start_x=start.x, start_y=start.y, direction=direction,
            speed=speed, policy="dl"),
        route,
        route_end_bounds(kind, rng.choice([0.0, 0.18, 5.0]), speed,
                         rng.choice([speed, speed * 1.6, 1.0])),
        horizon=rng.choice([120.0, 600.0, 37.3]),
        # At L itself, or wherever the start point projects.
        start_travel=travel if rng.random() < 0.5 else None,
    )


def slab_spans(plane: OPlane, slab_minutes: float):
    """The elapsed-time slabs ``OPlane.runs`` cuts the plane on."""
    slabs = []
    elapsed = 0.0
    while elapsed < plane.horizon - 1e-12:
        slab_end = min(elapsed + slab_minutes, plane.horizon)
        slabs.append((elapsed, slab_end))
        elapsed = slab_end
    return slabs


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       slab_minutes=st.sampled_from([5.0, 3.3, 7.0, 0.9]))
def test_route_end_planes_equal_the_per_sample_reference(seed,
                                                         slab_minutes):
    plane = route_end_plane(seed)
    assert box_bits(plane.runs(slab_minutes)) == box_bits(
        reference_runs(plane, slab_minutes))


def test_the_screen_skips_the_route_end_slabs():
    """Over seeded route-end planes the screen leaves about 40 % of the
    slabs unsampled, and bounds without a ceiling sample them all."""
    skipped = total = 0
    for seed in range(300):
        plane = route_end_plane(seed)
        for slab_minutes in (5.0, 3.3):
            slabs = slab_spans(plane, slab_minutes)
            assert slab_grid(plane.horizon, slab_minutes)[0] == (
                0.0, *(hi for _, hi in slabs))
            moving = plane._route_end_slab(plane._start_travel(),
                                           slab_minutes)
            if plane.bounds.ceiling is None:
                assert moving == len(slabs)
            skipped += len(slabs) - moving
            total += len(slabs)
            assert box_bits(plane.runs(slab_minutes)) == box_bits(
                reference_runs(plane, slab_minutes))
    assert skipped > total // 3


#: Families whose slow bound is 0 from ``t = 0`` at declared speed 0:
#: the only ones whose ceiling proves a parked object's first slab.
#: ail, cil and adaptive are among them, since ``min(2C/t, 0 t) = 0``.
ZERO_AT_REST = {"adaptive", "ail", "cil", "dl", "traditional",
                "horizon-free"}


@pytest.mark.parametrize("kind", sorted(policy_names()) + EXTRA_KINDS)
def test_every_family_at_its_route_end(kind):
    """An object at ``L`` under each family.  Driving on at speed 2, a
    ceiling proves every slab from the second on the stub; parked, only
    a bound that is 0 from the start proves the first one (a fixed
    trigger stays positive).  Bounds without a ceiling sample every
    slab."""
    route = NETWORK.random_route(random.Random(5), min_length=1.0)
    end = route.travel_point(route.length, 0)
    for speed in (2.0, 0.0):
        plane = OPlane(
            PositionAttribute(
                starttime=3.0, route_id=route.route_id, start_x=end.x,
                start_y=end.y, direction=0, speed=speed, policy="dl"),
            route, route_end_bounds(kind, 5.0, speed, 2.0),
            horizon=600.0, start_travel=route.length)
        slabs = slab_spans(plane, 7.0)
        if plane.bounds.ceiling is None:
            expected = len(slabs)
        elif speed:
            expected = 1
        else:
            expected = 0 if kind in ZERO_AT_REST else len(slabs)
        assert plane._route_end_slab(route.length, 7.0) == expected
        assert box_bits(plane.runs(7.0)) == box_bits(
            reference_runs(plane, 7.0))


# ----------------------------------------------------------------------
# Runs straight from the plane
# ----------------------------------------------------------------------
#
# ``OPlane.runs`` builds the index's entries without a box per slab: it
# merges equal rectangles as it goes and lays the route-end stub as one
# run.  Its runs must be the maximal runs of the reference slab boxes,
# bit for bit.

@st.composite
def run_planes(draw) -> tuple[OPlane, float]:
    """A plane of any family, often parked or outliving its route, on
    slabs of 1 to 20 minutes and a horizon that is a whole number of
    them or not, starting at 0 or later."""
    slab_minutes = float(draw(st.integers(1, 20)))
    horizon = slab_minutes * (draw(st.integers(0, 30)) + draw(st.one_of(
        st.just(1.0), st.floats(min_value=0.01, max_value=0.99))))
    route = NETWORK.random_route(random.Random(draw(st.integers(0, 2**16))),
                                 min_length=0.5)
    direction = draw(st.integers(0, 1))
    speed = draw(st.one_of(st.just(0.0), st.just(0.0),
                           st.floats(min_value=0.05, max_value=2.0)))
    travel = draw(st.one_of(st.sampled_from([0.0, route.length]),
                            st.floats(min_value=0.0, max_value=route.length)))
    start = route.travel_point(travel, direction)
    kind = draw(st.sampled_from(sorted(policy_names()) + EXTRA_KINDS))
    plane = OPlane(
        PositionAttribute(
            starttime=draw(st.sampled_from([0.0, 2.5, 7.0, 1000.25])),
            route_id=route.route_id, start_x=start.x, start_y=start.y,
            direction=direction, speed=speed, policy="dl"),
        route,
        route_end_bounds(kind, draw(st.sampled_from([0.0, 0.18, 5.0])),
                         speed, draw(st.sampled_from(
                             [speed, speed * 1.6, 1.0]))),
        horizon=horizon)
    return plane, slab_minutes


@settings(max_examples=examples(150), deadline=None)
@given(run_planes())
def test_runs_equal_the_maximal_runs_of_the_reference(case):
    plane, slab_minutes = case
    assert box_bits(plane.runs(slab_minutes)) == box_bits(
        reference_runs(plane, slab_minutes))
