"""Clean counterpart to ``badpkg``: the same shapes, done legally.

Seeded/injected randomness, an injected clock and sorted sets — the
flow analyzer must stay silent here.
"""
