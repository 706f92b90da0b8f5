"""Bad: a digest module draws from unseeded generators (RPR101 x4)."""

import random

import numpy as np


def digest_rows(rows):
    return [row + random.random() for row in rows]


def shuffled(rows):
    rng = random.Random()
    return rng.sample(rows, len(rows))


def noise(n):
    return np.random.rand(n) + np.random.default_rng().random(n)
