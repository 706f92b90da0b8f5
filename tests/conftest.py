"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.dbms.query import Containment
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.routes.route import Route
from repro.sim.speed_curves import PiecewiseConstantCurve
from repro.sim.trip import Trip

# Tier-1 must give the same verdict on the same tree: ``tier1`` draws
# every property test's examples from a seed derived from the test
# itself.  ``explore`` (``--hypothesis-profile=explore``, CI's
# non-blocking job) draws fresh ones, ten times as many; a
# counterexample it finds gets pinned as an explicit test.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", max_examples=1000, deadline=None)
settings.load_profile("tier1")


def examples(count: int) -> int:
    """``count`` examples under ``tier1``, ten times as many to explore."""
    return count * settings.default.max_examples // 100


def region_outcomes(region, geometries) -> list[str]:
    """The outcome a query region's ``classify`` gives each geometry, in
    order, read off the ``(may, must)`` sets it returns."""
    ids = list(range(len(geometries)))
    may, must = region.classify(
        ids, [(None, None, g, g.bounding_rect()) for g in geometries])
    assert must <= may <= set(ids)
    return [Containment.MUST if i in must else Containment.MAY if i in may
            else Containment.OUT for i in ids]


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed,
    so a call that would never return fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(1234)


@pytest.fixture
def straight_line() -> Polyline:
    """A 10-mile straight polyline along the x axis."""
    return Polyline([Point(0.0, 0.0), Point(10.0, 0.0)])


@pytest.fixture
def l_shaped() -> Polyline:
    """An L-shaped polyline: 3 miles east, then 4 miles north (length 7)."""
    return Polyline([Point(0.0, 0.0), Point(3.0, 0.0), Point(3.0, 4.0)])


@pytest.fixture
def straight_route_10(straight_line) -> Route:
    """A 10-mile straight route."""
    return Route("r-straight", straight_line)


@pytest.fixture
def l_route(l_shaped) -> Route:
    """A 7-mile L-shaped route."""
    return Route("r-l", l_shaped)


@pytest.fixture
def example1_trip() -> Trip:
    """Example 1's trip: 2 minutes at 1 mi/min, then stopped 8 minutes."""
    curve = PiecewiseConstantCurve([(2.0, 1.0), (8.0, 0.0)])
    return Trip.synthetic(curve, route_id="example1")
