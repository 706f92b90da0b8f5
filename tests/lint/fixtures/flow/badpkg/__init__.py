"""Deliberately-bad mini-package for the whole-program rules.

The hazards live in ``sim/engine.py`` (found there at depth 0); every
other violation is interprocedural: the hazard and the function it
breaks live in different modules (depth ≥ 1).
"""
