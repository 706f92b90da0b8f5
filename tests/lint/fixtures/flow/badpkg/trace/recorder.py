"""Trace sink module."""

from badpkg.sim.engine import labels, stamp


def record(event):
    # RPR102: second clock-tainted sink.
    return {"event": event, "t": stamp()}


def tag_set(doc):
    # RPR103: second unordered-tainted sink.
    return labels()
