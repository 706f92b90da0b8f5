"""Binds ``Widget`` only; ``missing`` and ``typed_only`` are nowhere."""


class Widget:
    pass


__all__ = ["Widget"]
