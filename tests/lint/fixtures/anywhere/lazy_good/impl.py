"""The module the lazy table of ``lazy_good`` maps its names to."""


class Widget:
    pass


def helper() -> None:
    pass


__all__ = ["Widget", "helper"]
