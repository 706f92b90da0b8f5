"""Slow, obviously-right reference implementations the fast paths are
differentially tested against (ROADMAP item 4)."""
