"""Digest sink module: both functions import their hazard."""

from badpkg.sim.engine import jitter, stamp


def digest_rows(rows):
    # RPR101: rng taint arrives one hop away.
    return [row + jitter() for row in rows]


def batch_header():
    # RPR102: wall clock arrives one hop away.
    return {"at": stamp()}
