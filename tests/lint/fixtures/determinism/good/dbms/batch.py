"""Good: the digest module's randomness is seeded by its caller."""

import random

import numpy as np


def digest_rows(rows, seed):
    rng = random.Random(seed)
    return [row + rng.random() for row in rows]


def noise(n, seed):
    return np.random.default_rng(seed).random(n)
