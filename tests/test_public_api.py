"""The package root exports a working public API, and every module's
``__all__`` is what ``from module import *`` really gets."""

import importlib
from pathlib import Path

import repro


def module_names():
    """Every ``repro`` module but ``__main__``, plus the R-tree oracle
    (the one test module that declares an import surface)."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)
    yield "tests.oracle.rtree_reference"


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_docstring_example_runs(self):
        """The README/quickstart snippet must actually work."""
        import random

        from repro import (
            AverageImmediateLinearPolicy,
            HighwayCurve,
            Trip,
            simulate_trip,
        )

        curve = HighwayCurve(10.0, random.Random(1))
        trip = Trip.synthetic(curve)
        result = simulate_trip(
            trip, AverageImmediateLinearPolicy(update_cost=5.0),
            dt=1.0 / 12.0,
        )
        assert result.metrics.total_cost >= 0.0

    def test_policy_factory_covers_paper_policies(self):
        from repro import make_policy

        for name in ("dl", "ail", "cil"):
            policy = make_policy(name, 5.0)
            assert policy.name == name


def test_every_module_declares_an_all_that_resolves():
    """A public module declares ``__all__``, and each name in it
    resolves through ``getattr`` — through a PEP 562 lazy table too, so
    a table entry that points at the wrong subpackage fails here."""
    problems = []
    for name in module_names():
        module = importlib.import_module(name)
        names = getattr(module, "__all__", None)
        if names is None:
            if not name.rsplit(".", 1)[-1].startswith("_"):
                problems.append(f"{name}: public module defines no __all__")
            continue
        for attr in names:
            try:
                getattr(module, attr)
            except AttributeError as exc:
                problems.append(f"{name}: __all__ lists {attr!r}: {exc}")
    assert problems == []
