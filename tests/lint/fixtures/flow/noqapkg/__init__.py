"""Suppression fixture: the only finding here is noqa'd."""

import random


def draw():
    return random.random()
