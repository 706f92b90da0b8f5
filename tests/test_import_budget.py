"""What a process imports is what its command uses.

``import repro`` binds no public name until it is read (PEP 562), and
each CLI command imports its own dependencies, so a ``trace replay``
child never loads the simulator, the sweep executor, the experiments,
the linter or the benchmark harness.  Each
check runs in a fresh interpreter: an in-process test would see
whatever earlier tests imported.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).parents[1]

#: Subpackages a replay has no use for.
NOT_FOR_REPLAY = ("repro.sim", "repro.exec", "repro.experiments",
                  "repro.lint", "repro.bench", "repro.vec")


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = (f"{code}\nimport json, sys\n"
              f"print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_import_repro_loads_no_subpackage_and_no_numpy():
    modules = modules_after("import repro")
    assert sorted(m for m in modules if m.startswith("repro.")) == []
    assert not loaded(modules, "numpy")
    assert not loaded(modules, "networkx")


def test_the_query_path_imports_numpy_only_when_it_computes_with_it():
    modules = modules_after("import repro.dbms, repro.obs, repro.trace")
    assert not loaded(modules, "numpy")


def test_many_candidate_queries_load_no_numpy():
    # Twelve objects on one road, at least eight the candidates of each
    # query.
    modules = modules_after("""
from repro.core.policies import make_policy
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.refine import RangeQuery, WithinDistanceQuery
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.index.timespace import TimeSpaceIndex
from repro.routes.route import Route
db = MovingObjectDatabase(index=TimeSpaceIndex())
db.schema.define_mobile_point_class("car")
db.register_route(Route("r", Polyline.from_coordinates([(0, 0), (30, 0)])))
for i in range(12):
    db.insert_moving_object(f"c{i}", "car", "r", 0.0, Point(2.0 * i, 0.0),
                            0, speed=0.5, policy=make_policy("ail", 0.5),
                            max_speed=1.0)
answers = BatchQueryEngine(db).run([
    RangeQuery(Polygon.rectangle(-1, -1, 31, 1), 2.0),
    RangeQuery(Polygon.rectangle(3, -1, 27, 1), 2.0),
    WithinDistanceQuery(Point(12.0, 0.0), 20.0, 2.0),
    WithinDistanceQuery(Point(12.0, 0.0), 9.0, 2.0),
])
assert all(len(a.candidates) >= 8 for a in answers), answers
""")
    assert not loaded(modules, "numpy")
    assert not loaded(modules, "repro.vec")


def test_query_workloads_load_no_simulator():
    modules = modules_after(
        "from repro.workloads import mixed_query_workload")
    assert not loaded(modules, "numpy")
    assert not loaded(modules, "repro.sim")


def test_every_workload_name_is_its_home_modules_object():
    import repro.workloads as workloads

    for name in workloads.__all__:
        home = importlib.import_module(workloads._LAZY[name])
        assert getattr(workloads, name) is getattr(home, name), name
    assert not hasattr(workloads, "no_such_name")


def test_building_the_parser_imports_no_simulator():
    modules = modules_after(
        "from repro.cli import build_parser\nbuild_parser()")
    assert not loaded(modules, "repro.sim")


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("budget") / "taxi.jsonl"
    assert main(["trace", "record", "--size", "6", "--duration", "8",
                 "--seed", "3", "--queries", "10", "--out", str(path)],
                out=io.StringIO()) == 0
    return str(path)


@pytest.mark.parametrize("flags", [[], ["--shards", "4"]],
                         ids=["monolithic", "shards4"])
def test_trace_replay_loads_only_what_it_replays(small_trace, flags):
    argv = ["trace", "replay", small_trace, *flags]
    modules = modules_after(
        "import contextlib, io\nfrom repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        "assert code == 0 and 'replay OK' in out.getvalue(), code")
    for package in NOT_FOR_REPLAY:
        assert not loaded(modules, package), package
    assert loaded(modules, "repro.shard") == bool(flags)


def test_every_public_name_is_its_home_modules_object():
    for name in repro.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(repro._LAZY[name])
        assert getattr(repro, name) is getattr(home, name), name
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises_attribute_error():
    # hasattr swallows AttributeError only; anything else propagates.
    assert not hasattr(repro, "no_such_name")
