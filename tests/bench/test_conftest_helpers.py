"""Tests for the helpers in benchmarks/conftest.py.

The conftest is not importable as a package module (benchmarks/ has no
__init__), so it is loaded by file path.
"""

import importlib.util
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def conftest_module():
    spec = importlib.util.spec_from_file_location(
        "repro_bench_scripts.conftest_under_test", CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_spec_shape(conftest_module):
    spec = conftest_module.BENCH_SPEC
    assert set(spec.policy_names) == {"dl", "ail", "cil"}
    assert list(spec.update_costs) == sorted(spec.update_costs)
    assert spec.num_curves > 0 and spec.duration > 0 and spec.dt > 0
    # The sweep the figure benches share must stay laptop-sized.
    cells = len(spec.policy_names) * len(spec.update_costs) * spec.num_curves
    assert cells <= 200


def test_bench_trips_fixture_builds_trips(conftest_module):
    trips = conftest_module.bench_trips.__wrapped__()
    assert len(trips) == 6
    route_ids = {t.route.route_id for t in trips}
    assert len(route_ids) == 6  # distinct routes
    for trip in trips:
        assert trip.duration == pytest.approx(60.0)
        assert trip.total_distance > 0


def test_standard_sweep_fixture_runs_the_shared_sweep(conftest_module):
    # Run the fixture body on a reduced copy of BENCH_SPEC (the full
    # one is session-scoped precisely because it is expensive).
    from dataclasses import replace

    from repro.experiments.sweep import run_policy_sweep

    small = replace(conftest_module.BENCH_SPEC, num_curves=2,
                    update_costs=(1.0, 5.0), duration=10.0)
    result = run_policy_sweep(small)
    assert set(result.cells) == set(small.policy_names)
    for by_cost in result.cells.values():
        assert set(by_cost) == set(small.update_costs)
