"""Ordered-output sink module."""

from badpkg.sim.engine import jitter, labels


def render(values):
    # RPR101: second rng-tainted sink.
    return [value * jitter() for value in values]


def column_names():
    # RPR103: unordered set iteration feeds the rendered table.
    return labels()
