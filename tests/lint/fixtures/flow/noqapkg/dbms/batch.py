"""Digest sink whose rng chain is suppressed at its first hop."""

from noqapkg import draw


def digest(rows):
    return [row + draw() for row in rows]  # repro: noqa[RPR101] fixture: the chain is the point
