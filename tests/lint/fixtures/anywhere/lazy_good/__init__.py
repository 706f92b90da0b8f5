"""Good: a lazy package whose __all__ names resolve through its table."""
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from lazy_good.impl import helper, Widget

VERSION = "1"

_LAZY = {"Widget": "lazy_good.impl", "helper": "lazy_good.impl"}


def __getattr__(name: str) -> Any:
    raise AttributeError(name)


__all__ = ["VERSION", "Widget", "helper"]
