"""One bound check per o-plane, every sample unchanged.

``OPlane.boxes`` evaluates the slow and fast bounds at every slab's
``samples + 1`` elapsed times through one ``DeviationBounds.sample``
call, which checks ``elapsed >= 0`` once for them all.  Its boxes must
equal — as packed bytes, so ``-0.0`` is not ``0.0`` — those built from
the travel range as it was, asking ``bounds.slow`` / ``bounds.fast``
sample by sample; and a negative elapsed time must still be refused
with :class:`PolicyError`.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import bounds_for_policy
from repro.core.policies import make_policy, policy_names
from repro.core.position import PositionAttribute
from repro.errors import IndexError_, PolicyError
from repro.geometry.bbox import Box3D
from repro.index.oplane import OPlane
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
    assert box_bits(plane.boxes(slab_minutes)) == box_bits(
        reference_boxes(plane, slab_minutes))


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
