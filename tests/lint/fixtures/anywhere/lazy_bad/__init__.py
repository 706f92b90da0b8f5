"""Bad: a lazy table whose names do not resolve where it points."""
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from lazy_bad.impl import Widget, typed_only

_LAZY = {
    "Widget": "lazy_bad.impl",
    "missing": "lazy_bad.impl",
    "ghost": "lazy_bad.nowhere",
}


def __getattr__(name: str) -> Any:
    raise AttributeError(name)


__all__ = ["Widget", "missing", "ghost", "typed_only"]
