"""Outside-in probes: spans around calls into each layer's public callables.

The benchmark may not instrument the program (tracers and registries
switch ``SweepExecutor.run`` off its vectorised path), so the traced
repetition wraps coarse callables *from here*.  A probe is one row of
:data:`PROBES`; every call of its target appends an in-memory span
``(id, parent, section, name, start, end)`` and self time is a span's duration
minus what its child spans cover, so the self times of all spans plus
the root's own self time partition the traced wall clock exactly.

Only callables with < 200 k calls per workload are probed:
``SpeedCurve.speed`` and the per-candidate ``core`` functions are left
inside their callers on purpose.

This is the one file that names ``repro`` internals below package
level.  A target that a later refactor renames or deletes is reported
in ``missing`` and its metrics read ``None``; it is never an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple


class Probe(NamedTuple):
    """``name`` is the span name and the prefix of the metrics it feeds."""

    name: str
    target: str  # "module:qualname"
    #: Also sum a number taken from each call: ``len`` of the result
    #: ("result") or of the first positional argument ("arg").
    observe: str | None = None


_DB = "repro.dbms.database:MovingObjectDatabase."
_SHARD = "repro.shard.sharded:ShardedDatabase."
_TSI = "repro.index.timespace:TimeSpaceIndex."
_RTREE = "repro.index.rtree:RTree."

#: The experiment functions ``repro.experiments.runner.run_all`` calls.
EXPERIMENT_FUNCTIONS = {
    "figures": ("run_standard_sweep", "figure_bound_shapes"),
    "tables": ("table_update_savings", "table_example1",
               "example1_threshold_trace", "table_threshold_algebra",
               "table_predictor_ablation", "table_delay_ablation"),
    "indexing": ("experiment_index_sublinearity",
                 "experiment_may_must_correctness",
                 "experiment_index_maintenance"),
    "extensions": ("table_horizon_policy", "table_adaptive_policy",
                   "table_xy_vs_route", "table_route_change"),
    "optimality": ("table_online_vs_offline",),
    "robustness": ("table_noise_robustness",),
    "index_tuning": ("table_slab_tuning",),
    "sharding": ("table_sharding",),
}

PROBES: tuple[Probe, ...] = (
    Probe("routes.random_route",
          "repro.routes.network:RouteNetwork.random_route"),
    Probe("routes.shortest_route",
          "repro.routes.network:RouteNetwork.shortest_route"),
    Probe("sim.speed_curves.summary",
          "repro.sim.speed_curves:SpeedCurve.mean_speed"),
    Probe("sim.speed_curves.summary",
          "repro.sim.speed_curves:SpeedCurve.max_speed"),
    Probe("sim.trip.build", "repro.sim.trip:Trip.__init__"),
    Probe("sim.fleet.add_vehicle",
          "repro.sim.fleet:FleetSimulation.add_vehicle"),
    Probe("sim.fleet.run", "repro.sim.fleet:FleetSimulation.run"),
    Probe("sim.engine.run", "repro.sim.engine:PolicySimulation.run"),
    Probe("exec.executor.run", "repro.exec.executor:SweepExecutor.run"),
    Probe("exec.cache.grid_build", "repro.exec.cache:TickGrid.build"),
    Probe("vec.engine.simulate", "repro.vec.engine:simulate_batch"),
    Probe("vec.batch.pack", "repro.vec.batch:VecTripBatch.from_grids"),
    Probe("dbms.database.insert", _DB + "insert_moving_object"),
    Probe("dbms.database.insert", _DB + "insert_stationary_object"),
    Probe("dbms.database.update", _DB + "process_update"),
    Probe("dbms.database.query", _DB + "position_of"),
    Probe("dbms.database.query", _DB + "range_query"),
    Probe("dbms.database.query", _DB + "within_distance"),
    Probe("dbms.database.query", _DB + "within_distance_of_object"),
    Probe("dbms.database.query", _DB + "nearest"),
    Probe("dbms.batch.run", "repro.dbms.batch:BatchQueryEngine.run", "arg"),
    Probe("index.timespace.insert", _TSI + "insert"),
    Probe("index.timespace.insert", _TSI + "bulk_build"),
    Probe("index.timespace.replace", _TSI + "replace"),
    Probe("index.timespace.remove", _TSI + "remove"),
    Probe("index.timespace.search", _TSI + "candidates_at"),
    Probe("index.timespace.search", _TSI + "candidates_at_many"),
    Probe("index.rtree.insert", _RTREE + "insert"),
    Probe("index.rtree.delete", _RTREE + "delete"),
    Probe("index.rtree.delete", _RTREE + "delete_payload"),
    Probe("index.rtree.search", _RTREE + "search"),
    Probe("index.rtree.search", _RTREE + "search_many"),
    Probe("index.rtree.bulk_load", _RTREE + "bulk_load"),
    Probe("shard.update", _SHARD + "insert_moving_object"),
    Probe("shard.update", _SHARD + "insert_stationary_object"),
    Probe("shard.update", _SHARD + "process_update"),
    Probe("shard.query", _SHARD + "position_of"),
    Probe("shard.query", _SHARD + "range_query"),
    Probe("shard.query", _SHARD + "within_distance"),
    Probe("shard.query", _SHARD + "within_distance_of_object"),
    Probe("shard.query", _SHARD + "nearest"),
    Probe("shard.query", "repro.shard.parallel:ShardedBatchQueryEngine.run"),
    Probe("shard.fanout", _SHARD + "shards_for_window", "result"),
    Probe("trace.read", "repro.trace.recorder:read_trace"),
    Probe("trace.replay", "repro.trace.replay:TraceReplayer.replay"),
    Probe("trace.record", "repro.trace.recorder:TraceRecorder.record"),
    Probe("trace.record", "repro.trace.recorder:TraceRecorder.record_query"),
    Probe("trace.write", "repro.trace.recorder:write_trace"),
) + tuple(
    Probe(f"experiments.{function}", f"repro.experiments.{module}:{function}")
    for module, functions in EXPERIMENT_FUNCTIONS.items()
    for function in functions
)


#: Root span of every timed section; its self time is what no probe covers.
ROOT_SPAN = "probe.unattributed"


def retargeted(overrides: list[str]) -> tuple[Probe, ...]:
    """:data:`PROBES` with every ``NAME`` row replaced by one at ``TARGET``.

    ``overrides`` are ``NAME=MODULE:QUALNAME`` strings.  A test hook:
    it stands in for a refactor that renamed a probed callable.
    """
    table = PROBES
    for override in overrides:
        name, target = override.split("=", 1)
        table = tuple(p for p in table if p.name != name) + (
            Probe(name, target),)
    return table


class SpanLog:
    """The spans of one traced repetition, kept in memory until it ends."""

    def __init__(self) -> None:
        #: Finished spans: ``(span_id, parent_id, section, name, start, end)``.
        self.spans: list[
            tuple[int, int | None, str, str, float, float]] = []
        #: Label of the timed section the next spans belong to.
        self.section = ""
        self.observed: dict[str, float] = {}
        #: Span names with at least one target wrapped, and the targets
        #: that could not be found.
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def begin(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def end(self, span_id: int, parent: int | None, name: str,
            start: float) -> None:
        self.spans.append(
            (span_id, parent, self.section, name, start, perf_counter()))
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        ids = self.begin()
        start = perf_counter()
        try:
            yield
        finally:
            self.end(*ids, name, start)

    def table(self) -> dict[str, dict[str, dict[str, float]]]:
        """``section -> name -> {calls, self_s, total_s}``."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        rows: dict[str, dict[str, dict[str, float]]] = {}
        for span_id, _, section, name, start, end in self.spans:
            row = rows.setdefault(section, {}).setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return rows

    def dump(self) -> dict[str, Any]:
        return {"spans": self.table(), "observed": self.observed,
                "installed": sorted(self.installed), "missing": self.missing}


def _wrap(function: Callable[..., Any], probe: Probe,
          log: SpanLog) -> Callable[..., Any]:
    name = probe.name
    observe = probe.observe
    begin, end = log.begin, log.end

    @functools.wraps(function)
    def probed(*args: Any, **kwargs: Any) -> Any:
        span_id, parent = begin()
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end(span_id, parent, name, start)
        if observe is not None:
            # args[0] is self: the probed targets are all methods.
            measured = result if observe == "result" else args[1]
            log.observed[name] = log.observed.get(name, 0.0) + len(measured)
        return result

    return probed


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute value)`` of ``module:qualname``.

    Raises ``ImportError``/``AttributeError``/``KeyError`` when any
    part of the path is gone.
    """
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, vars(owner)[attribute]


def install(log: SpanLog, probes: tuple[Probe, ...] = PROBES) -> None:
    """Wrap every probe's target so its calls append spans to ``log``.

    A method is wrapped where it is defined.  A module-level function
    is also rebound in every ``repro.*`` module global that *is* the
    original, so ``from x import f`` call sites are covered too.
    """
    rebound: dict[int, Any] = {}  # id(original function) -> its wrapper
    for probe in probes:
        try:
            owner, attribute, raw = _resolve(probe.target)
        except (ImportError, AttributeError, KeyError):
            log.missing.append(probe.target)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(_wrap(raw.__func__, probe, log))
        else:
            wrapped = _wrap(raw, probe, log)
        setattr(owner, attribute, wrapped)
        log.installed.add(probe.name)
        if not isinstance(owner, type):
            rebound[id(raw)] = wrapped
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for global_name, value in list(vars(module).items()):
            if id(value) in rebound:
                setattr(module, global_name, rebound[id(value)])
