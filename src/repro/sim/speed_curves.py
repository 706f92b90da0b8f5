"""Synthetic speed curves — the workloads of the paper's §3.4.

"Each trip is represented by a speed-curve, i.e. the actual speed of a
moving object as a function of time."  The paper's traces are not
published, so we generate parameterised synthetic curves covering the
driving regimes the paper discusses:

* :class:`HighwayCurve` — mildly fluctuating speed around a cruising
  value ("highway driving in non-rush hour, when the speed fluctuates
  only mildly"),
* :class:`CityCurve` — stop-and-go phases ("city driving, where the
  speed fluctuates sharply"),
* :class:`TrafficJamCurve` — cruise, sudden stop, crawl, recovery
  (Example 1's "travels at that speed for 2 minutes, and then it stops
  in a traffic jam"),
* :class:`RushHourCurve` — slow congestion waves on top of a base speed,
* :class:`MixedCurve` — concatenation of regimes (e.g. city, then
  highway, then city).

All randomness is drawn at *construction* from a caller-supplied
``random.Random``, so a curve is a deterministic function ``speed(t)``
afterwards — simulations are exactly reproducible from a seed.

Every curve evaluates two ways: ``speed(t)`` at one time (what the tick
loops call) and ``speed_many(ts)`` over an array of times (what trip
construction and the curve summaries call).  The contract is that
``speed_many(ts)[i] == speed(ts[i])`` exactly — each array override
performs the scalar method's floating-point operations in the scalar
method's order — so which one a caller uses never shows in a result.

Speeds are miles/minute; a typical urban 30 mph is 0.5, highway 60 mph
is 1.0 (Example 1's "1 mile per minute").
"""

from __future__ import annotations

import bisect
import math
import random
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import SimulationError


class SpeedCurve(ABC):
    """A deterministic speed profile over ``[0, duration]``."""

    #: Regime label used in reports ("highway", "city", ...).
    kind: str = "abstract"

    def __init__(self, duration: float) -> None:
        self.duration = self._checked_duration(duration)
        # Curves are immutable after construction, so a summary is
        # computed once per (kind, samples).
        self._summaries: dict[tuple[str, int], float] = {}

    @staticmethod
    def _checked_duration(duration: float) -> float:
        """``duration``, or a :class:`SimulationError` unless it is
        positive and finite."""
        if not 0 < duration < float("inf"):
            raise SimulationError(
                f"duration must be positive and finite, got {duration}")
        return duration

    @abstractmethod
    def speed(self, t: float) -> float:
        """Actual speed at time ``t`` (miles/minute, always >= 0)."""

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """``speed`` at every time of ``ts``: the same floats, as an array.

        Raises :class:`SimulationError` when any time lies outside the
        curve's domain, as ``speed`` does.  This default loops over
        ``speed``; the concrete curves override it with array arithmetic.
        """
        return np.array(
            [self.speed(t) for t in self._checked_times(ts).tolist()],
            dtype=float,
        )

    def max_speed(self, samples: int = 2048) -> float:
        """An upper envelope of the curve.

        This is the paper's ``V`` — the maximum speed the DBMS may
        assume for the trip.  Curves made of explicit pieces report
        their exact peak; the others are sampled densely, which
        suffices because they are piecewise-smooth with bounded
        variation between samples.  A tiny headroom factor guards the
        gaps.
        """
        key = ("max", samples)
        if key not in self._summaries:
            self._summaries[key] = self._peak_speed(samples) * 1.001 + 1e-12
        return self._summaries[key]

    def _peak_speed(self, samples: int) -> float:
        """The largest speed on the ``samples + 1``-point uniform grid."""
        grid = self.duration * np.arange(samples + 1) / samples
        return float(self.speed_many(grid).max())

    def mean_speed(self, samples: int = 2048) -> float:
        """Average speed over the trip (trapezoidal estimate)."""
        key = ("mean", samples)
        if key not in self._summaries:
            dt = self.duration / samples
            values = self.speed_many(np.arange(samples + 1) * dt)
            panels = (values[:-1] + values[1:]) / 2.0 * dt
            # cumsum adds left to right, one panel at a time.
            self._summaries[key] = float(np.cumsum(panels)[-1]) / self.duration
        return self._summaries[key]

    def _check_time(self, t: float) -> None:
        if not -1e-9 <= t <= self.duration + 1e-9:
            raise SimulationError(
                f"time {t} outside curve domain [0, {self.duration}]"
            )

    def _checked_times(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """``ts`` as a float array, every element inside the domain."""
        ts = np.asarray(ts, dtype=float)
        outside = ~((ts >= -1e-9) & (ts <= self.duration + 1e-9))
        if outside.any():
            raise SimulationError(
                f"time {ts[outside].flat[0]} outside curve domain "
                f"[0, {self.duration}]"
            )
        return ts


def _piece_index(boundaries: np.ndarray, ts: np.ndarray,
                 pieces: int) -> np.ndarray:
    """Array form of ``bisect_right(boundaries, t) - 1`` clamped to a piece."""
    idx = np.searchsorted(boundaries, ts, side="right") - 1
    return np.clip(idx, 0, pieces - 1)


class ConstantCurve(SpeedCurve):
    """A constant speed for the whole trip (the zero-deviation case)."""

    kind = "constant"

    def __init__(self, duration: float, value: float) -> None:
        super().__init__(duration)
        if value < 0:
            raise SimulationError(f"speed must be nonnegative, got {value}")
        self.value = value

    def speed(self, t: float) -> float:
        self._check_time(t)
        return self.value

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        return np.full(self._checked_times(ts).shape, self.value, dtype=float)


class PiecewiseConstantCurve(SpeedCurve):
    """Explicit ``(duration, speed)`` phases, in order.

    The workhorse for hand-built test scenarios (e.g. Example 1: two
    minutes at speed 1, then stopped).
    """

    kind = "piecewise"

    def __init__(self, phases: Sequence[tuple[float, float]]) -> None:
        if not phases:
            raise SimulationError("need at least one phase")
        boundaries = [0.0]
        speeds = []
        for phase_duration, phase_speed in phases:
            if phase_duration <= 0:
                raise SimulationError(
                    f"phase duration must be positive, got {phase_duration}"
                )
            if phase_speed < 0:
                raise SimulationError(
                    f"phase speed must be nonnegative, got {phase_speed}"
                )
            boundaries.append(boundaries[-1] + phase_duration)
            speeds.append(phase_speed)
        super().__init__(boundaries[-1])
        self._boundaries = boundaries
        self._speeds = speeds
        self._boundary_array = np.array(boundaries, dtype=float)
        self._speed_array = np.array(speeds, dtype=float)

    def speed(self, t: float) -> float:
        self._check_time(t)
        t = min(max(t, 0.0), self.duration)
        idx = bisect.bisect_right(self._boundaries, t) - 1
        idx = min(max(idx, 0), len(self._speeds) - 1)
        return self._speeds[idx]

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = np.clip(self._checked_times(ts), 0.0, self.duration)
        return self._speed_array[
            _piece_index(self._boundary_array, ts, len(self._speeds))
        ]

    def _peak_speed(self, samples: int) -> float:
        # Exact: a grid can step over a phase shorter than its spacing.
        return max(self._speeds)


class HighwayCurve(SpeedCurve):
    """Cruising speed with mild smooth fluctuation.

    The fluctuation is a sum of a few low-frequency sinusoids with
    random phases — smooth, bounded, and cheap to evaluate exactly.
    """

    kind = "highway"

    def __init__(self, duration: float, rng: random.Random,
                 cruise: float = 1.0, wobble: float = 0.08,
                 components: int = 3) -> None:
        super().__init__(duration)
        if cruise <= 0:
            raise SimulationError(f"cruise speed must be positive, got {cruise}")
        if not 0 <= wobble < 1:
            raise SimulationError(f"wobble fraction must be in [0, 1), got {wobble}")
        self.cruise = cruise
        self.wobble = wobble
        self._terms = [
            (
                rng.uniform(0.3, 1.5),          # cycles per 10 minutes
                rng.uniform(0.0, 2.0 * math.pi),  # phase
                rng.uniform(0.4, 1.0),          # relative amplitude
            )
            for _ in range(components)
        ]
        amp_total = sum(term[2] for term in self._terms) or 1.0
        self._amp_scale = cruise * wobble / amp_total

    def speed(self, t: float) -> float:
        self._check_time(t)
        fluctuation = 0.0
        for freq, phase, amp in self._terms:
            fluctuation += amp * math.sin(
                2.0 * math.pi * freq * t / 10.0 + phase
            )
        return max(self.cruise + self._amp_scale * fluctuation, 0.0)

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = self._checked_times(ts)
        fluctuation = np.zeros(ts.shape)
        for freq, phase, amp in self._terms:
            fluctuation += amp * np.sin(
                2.0 * math.pi * freq * ts / 10.0 + phase
            )
        return np.maximum(self.cruise + self._amp_scale * fluctuation, 0.0)


class CityCurve(SpeedCurve):
    """Stop-and-go city driving.

    Alternating drive and stop phases with random durations and random
    per-phase cruise speeds — the sharply fluctuating regime for which
    the paper recommends declaring the *average* speed.
    """

    kind = "city"

    def __init__(self, duration: float, rng: random.Random,
                 cruise: float = 0.5,
                 drive_minutes: tuple[float, float] = (0.5, 2.5),
                 stop_minutes: tuple[float, float] = (0.2, 1.0)) -> None:
        if cruise <= 0:
            raise SimulationError(f"cruise speed must be positive, got {cruise}")
        # Checked before the phase loop, which never ends at inf.
        self._checked_duration(duration)
        phases: list[tuple[float, float]] = []
        total = 0.0
        driving = True
        while total < duration:
            if driving:
                phase_duration = rng.uniform(*drive_minutes)
                phase_speed = cruise * rng.uniform(0.6, 1.3)
            else:
                phase_duration = rng.uniform(*stop_minutes)
                phase_speed = 0.0
            phase_duration = min(phase_duration, duration - total)
            if phase_duration > 0:
                phases.append((phase_duration, phase_speed))
                total += phase_duration
            driving = not driving
        self._inner = PiecewiseConstantCurve(phases)
        super().__init__(self._inner.duration)
        self.cruise = cruise

    def speed(self, t: float) -> float:
        self._check_time(t)
        return self._inner.speed(t)

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        return self._inner.speed_many(ts)

    def _peak_speed(self, samples: int) -> float:
        return self._inner._peak_speed(samples)


class TrafficJamCurve(SpeedCurve):
    """Cruise, hit a jam, crawl, recover — Example 1's scenario.

    Deterministic given the phase parameters; the ``rng`` randomises
    when the jam starts and how long it lasts.
    """

    kind = "jam"

    def __init__(self, duration: float, rng: random.Random,
                 cruise: float = 1.0, crawl: float = 0.05,
                 jam_start_range: tuple[float, float] | None = None,
                 jam_minutes: tuple[float, float] = (5.0, 15.0)) -> None:
        super().__init__(duration)
        if cruise <= 0 or crawl < 0:
            raise SimulationError("cruise must be positive, crawl nonnegative")
        if jam_start_range is None:
            jam_start_range = (duration * 0.2, duration * 0.6)
        self.cruise = cruise
        self.crawl = crawl
        self.jam_start = rng.uniform(*jam_start_range)
        self.jam_end = min(
            self.jam_start + rng.uniform(*jam_minutes), duration
        )
        #: Minutes over which speed ramps between cruise and crawl.
        self.ramp = 0.5

    def speed(self, t: float) -> float:
        self._check_time(t)
        if t < self.jam_start:
            return self.cruise
        if t < self.jam_start + self.ramp:
            frac = (t - self.jam_start) / self.ramp
            return self.cruise + (self.crawl - self.cruise) * frac
        if t < self.jam_end:
            return self.crawl
        if t < self.jam_end + self.ramp:
            frac = (t - self.jam_end) / self.ramp
            return self.crawl + (self.cruise - self.crawl) * frac
        return self.cruise

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = self._checked_times(ts)
        slowing = (ts - self.jam_start) / self.ramp
        recovering = (ts - self.jam_end) / self.ramp
        # select takes the first condition that holds, as the if-chain does.
        return np.select(
            [
                ts < self.jam_start,
                ts < self.jam_start + self.ramp,
                ts < self.jam_end,
                ts < self.jam_end + self.ramp,
            ],
            [
                self.cruise,
                self.cruise + (self.crawl - self.cruise) * slowing,
                self.crawl,
                self.crawl + (self.cruise - self.crawl) * recovering,
            ],
            default=self.cruise,
        )


class RushHourCurve(SpeedCurve):
    """Slow congestion waves: speed oscillates between flow and crawl."""

    kind = "rush-hour"

    def __init__(self, duration: float, rng: random.Random,
                 free_flow: float = 0.8, congested: float = 0.15,
                 wave_minutes: tuple[float, float] = (6.0, 14.0)) -> None:
        super().__init__(duration)
        if free_flow <= congested or congested < 0:
            raise SimulationError("need free_flow > congested >= 0")
        self.free_flow = free_flow
        self.congested = congested
        self.wave_period = rng.uniform(*wave_minutes)
        self.phase = rng.uniform(0.0, 2.0 * math.pi)

    def speed(self, t: float) -> float:
        self._check_time(t)
        mid = (self.free_flow + self.congested) / 2.0
        amp = (self.free_flow - self.congested) / 2.0
        return mid + amp * math.sin(
            2.0 * math.pi * t / self.wave_period + self.phase
        )

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = self._checked_times(ts)
        mid = (self.free_flow + self.congested) / 2.0
        amp = (self.free_flow - self.congested) / 2.0
        return mid + amp * np.sin(
            2.0 * math.pi * ts / self.wave_period + self.phase
        )


class TraceCurve(SpeedCurve):
    """Playback of a recorded speed trace.

    ``samples`` are ``(time, speed)`` pairs in strictly increasing time
    starting at 0; speeds are linearly interpolated between samples.
    This is how real GPS speed logs enter the simulator — the paper's
    evaluation abstraction ("each trip is represented by a speed-curve")
    applied to measured data.  :meth:`from_csv` loads the two-column
    ``time,speed`` format.
    """

    kind = "trace"

    def __init__(self, samples: Sequence[tuple[float, float]]) -> None:
        if len(samples) < 2:
            raise SimulationError("a trace needs at least two samples")
        times = [t for t, _ in samples]
        if times[0] != 0.0:  # repro: noqa[RPR301] spec check: a trace's first sample must be literally t=0, not merely close
            raise SimulationError(
                f"a trace must start at time 0, got {times[0]}"
            )
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise SimulationError(
                    f"trace times must strictly increase "
                    f"({earlier} then {later})"
                )
        for _, speed in samples:
            if speed < 0:
                raise SimulationError(
                    f"trace speeds must be nonnegative, got {speed}"
                )
        super().__init__(times[-1])
        self._times = times
        self._speeds = [s for _, s in samples]
        self._time_array = np.array(times, dtype=float)
        self._speed_array = np.array(self._speeds, dtype=float)

    @classmethod
    def from_csv(cls, path: str) -> "TraceCurve":
        """Load a trace from a ``time,speed`` CSV file (header optional)."""
        samples: list[tuple[float, float]] = []
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise SimulationError(
                        f"{path}:{line_number}: expected 'time,speed', "
                        f"got {line!r}"
                    )
                try:
                    samples.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    if line_number == 1:
                        continue  # header row
                    raise SimulationError(
                        f"{path}:{line_number}: non-numeric sample {line!r}"
                    ) from None
        return cls(samples)

    def speed(self, t: float) -> float:
        self._check_time(t)
        t = min(max(t, 0.0), self.duration)
        idx = bisect.bisect_right(self._times, t) - 1
        idx = min(max(idx, 0), len(self._times) - 2)
        t0, t1 = self._times[idx], self._times[idx + 1]
        s0, s1 = self._speeds[idx], self._speeds[idx + 1]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = np.clip(self._checked_times(ts), 0.0, self.duration)
        idx = _piece_index(self._time_array, ts, len(self._times) - 1)
        t0, t1 = self._time_array[idx], self._time_array[idx + 1]
        s0, s1 = self._speed_array[idx], self._speed_array[idx + 1]
        return s0 + (s1 - s0) * (ts - t0) / (t1 - t0)

    def _peak_speed(self, samples: int) -> float:
        # Exact: linear interpolation peaks at a sample, and a grid can
        # step over a spike narrower than its spacing.
        return max(self._speeds)


class MixedCurve(SpeedCurve):
    """Concatenation of curves: e.g. city, then highway, then city."""

    kind = "mixed"

    def __init__(self, parts: Sequence[SpeedCurve]) -> None:
        if not parts:
            raise SimulationError("need at least one part")
        super().__init__(sum(part.duration for part in parts))
        self._parts = list(parts)
        boundaries = [0.0]
        for part in parts:
            boundaries.append(boundaries[-1] + part.duration)
        self._boundaries = boundaries
        self._boundary_array = np.array(boundaries, dtype=float)

    def speed(self, t: float) -> float:
        self._check_time(t)
        t = min(max(t, 0.0), self.duration)
        idx = bisect.bisect_right(self._boundaries, t) - 1
        idx = min(max(idx, 0), len(self._parts) - 1)
        return self._parts[idx].speed(t - self._boundaries[idx])

    def speed_many(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        ts = np.clip(self._checked_times(ts), 0.0, self.duration)
        idx = _piece_index(self._boundary_array, ts, len(self._parts))
        speeds = np.empty(ts.shape)
        for i, part in enumerate(self._parts):
            in_part = idx == i
            speeds[in_part] = part.speed_many(
                ts[in_part] - self._boundaries[i]
            )
        return speeds


def standard_curve_set(rng: random.Random, count: int = 20,
                       duration: float = 60.0) -> list[SpeedCurve]:
    """The evaluation workload: a diverse set of one-hour trips.

    Cycles through the regimes (highway, city, jam, rush hour, mixed)
    so each policy is exercised across the driving patterns §3.1 says
    favour different policies.
    """
    if count < 1:
        raise SimulationError(f"count must be positive, got {count}")
    curves: list[SpeedCurve] = []
    for i in range(count):
        regime = i % 5
        if regime == 0:
            curves.append(HighwayCurve(duration, rng))
        elif regime == 1:
            curves.append(CityCurve(duration, rng))
        elif regime == 2:
            curves.append(TrafficJamCurve(duration, rng))
        elif regime == 3:
            curves.append(RushHourCurve(duration, rng))
        else:
            third = duration / 3.0
            curves.append(
                MixedCurve(
                    [
                        CityCurve(third, rng),
                        HighwayCurve(third, rng),
                        CityCurve(duration - 2.0 * third, rng),
                    ]
                )
            )
    return curves

__all__ = [
    "CityCurve",
    "ConstantCurve",
    "HighwayCurve",
    "MixedCurve",
    "PiecewiseConstantCurve",
    "RushHourCurve",
    "SpeedCurve",
    "TraceCurve",
    "TrafficJamCurve",
    "standard_curve_set",
]
