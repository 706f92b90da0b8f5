"""Command-line interface: ``python -m repro <command>``.

Six commands cover the library's day-one workflows:

* ``report [--fast]`` — regenerate the full reproduction report
  (every paper table/figure plus the extension experiments); with
  ``--metrics-out`` it also dumps a JSONL metrics snapshot,
* ``simulate`` — run one trip under one policy and print its metrics
  (optionally dumping the per-tick series as CSV),
* ``scenario`` — run a fleet scenario and print message accounting,
* ``stats`` — run a fleet scenario under a metrics registry and
  tracer, issue range queries against the running database, and emit
  the metric snapshot (Prometheus text and/or JSONL, plus an optional
  span trace),
* ``trace`` — the workload flight recorder (:mod:`repro.trace`):
  ``record`` a scenario + query workload as schema-versioned JSONL,
  ``replay`` it against a fresh database verifying byte-identical
  answer digests, ``summary`` its event counts,
* ``lint`` — the paper-invariant static analysis (:mod:`repro.lint`):
  one run over files and the programs they form, exit 1 on any
  finding.

``report``, ``scenario``, and ``stats`` accept ``--profile``, which
records the run's spans and prints a flame summary (per-span-name
self/total time) whose self-time column partitions the root span's
wall clock.

A flag several commands take is declared once (``_SHARED``); a command
names the ones it takes and states only what differs.  Any
:class:`~repro.errors.ReproError`, a malformed trace or plan field
included, prints ``error: ...`` and exits 1.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterator, TextIO

from repro.core.policies import make_policy, policy_names
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.sim.speed_curves import SpeedCurve

# Each command imports what it runs inside its own function, so a
# process pays at start for its command only (DESIGN.md, "Process start").
_CURVES = ("highway", "city", "jam", "rush-hour")


def _build_curve(kind: str, duration: float, seed: int,
                 trace: str | None) -> SpeedCurve:
    from repro.sim.speed_curves import (
        CityCurve,
        HighwayCurve,
        RushHourCurve,
        TraceCurve,
        TrafficJamCurve,
    )

    if trace is not None:
        return TraceCurve.from_csv(trace)
    try:
        constructor = {
            "highway": HighwayCurve,
            "city": CityCurve,
            "jam": TrafficJamCurve,
            "rush-hour": RushHourCurve,
        }[kind]
    except KeyError:
        raise ReproError(
            f"unknown curve kind {kind!r}; known: {sorted(_CURVES)}"
        ) from None
    return constructor(duration, random.Random(seed))


@contextmanager
def _observing(args: argparse.Namespace, out: TextIO, *, root: str,
               sinks: tuple[str, ...] = (), meta: dict | None = None,
               mark: str = "") -> Iterator[SimpleNamespace]:
    """One observation session for a command.

    Builds whichever sinks the command's flags ask for — a registry for
    ``--metrics-out`` / ``--prom-out`` / ``--jsonl-out``, a tracer for
    ``--spans-out`` / ``--profile`` (the latter under a ``root`` span,
    so the flame summary's self times partition its wall clock), a
    flight recorder (with ``meta``) for ``--trace-out`` — plus those
    named in ``sinks``, installs them together, and on exit writes what
    was asked for, each with its line on ``out`` (the trace's line
    prefixed by ``mark``).  Yields the sinks (``None`` where not
    installed).  A command with none of these flags gets a no-op.
    """
    from repro.obs import Tracer, observe

    def flag(name: str):
        return getattr(args, name, None)

    profile = bool(flag("profile"))
    registry = "registry" in sinks or any(
        flag(name) is not None
        for name in ("metrics_out", "prom_out", "jsonl_out"))
    tracer = recorder = None
    if "tracer" in sinks or profile or flag("spans_out") is not None:
        tracer = Tracer(max_spans=1_000_000 if profile else 100_000)
    if "recorder" in sinks or flag("trace_out") is not None:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(meta=meta)
    session = SimpleNamespace(registry=None, tracer=tracer,
                              recorder=recorder)
    with ExitStack() as stack:
        p = stack.enter_context(observe(
            registry=registry or None, tracer=tracer, recorder=recorder))
        if registry:
            session.registry = p.registry
        if profile:
            stack.enter_context(tracer.span(root))  # repro: noqa[RPR501] entered here, exited with the stack: a `with` cannot be conditional
        yield session
    from repro.obs import print_flame_summary, write_jsonl, write_prometheus

    if flag("prom_out") is not None:
        write_prometheus(session.registry, args.prom_out)
        print(f"# prometheus snapshot written to {args.prom_out}", file=out)
    if flag("jsonl_out") is not None:
        write_jsonl(session.registry, args.jsonl_out)
        print(f"# jsonl snapshot written to {args.jsonl_out}", file=out)
    if flag("metrics_out") is not None:
        write_jsonl(session.registry, args.metrics_out)
        print(f"metrics snapshot written to {args.metrics_out}", file=out)
    if flag("spans_out") is not None:
        exported = tracer.export_jsonl(args.spans_out)
        print(f"# {exported} spans written to {args.spans_out}", file=out)
    if flag("trace_out") is not None:
        from repro.trace import write_trace

        count = write_trace(recorder, args.trace_out)
        print(f"{mark}workload trace ({count} events) written to "
              f"{args.trace_out}", file=out)
    if profile:
        print_flame_summary(tracer, out)


def _check_counts(args: argparse.Namespace, *flags: str) -> None:
    """Refuse a count flag below 1 before the command does any work."""
    for flag in flags:
        value = getattr(args, flag[2:])
        if value is not None and value < 1:
            raise ReproError(f"{flag} must be >= 1, got {value}")


def _cmd_report(args: argparse.Namespace, out: TextIO) -> int:
    from repro.experiments.runner import run_all

    _check_counts(args, "--shards")
    with _observing(args, out, root="report"):
        run_all(fast=args.fast, out=out, shards=args.shards)
    return 0


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    from repro.reporting.export import rows_to_csv, write_csv
    from repro.sim.engine import simulate_trip
    from repro.sim.trip import Trip

    curve = _build_curve(args.curve, args.duration, args.seed, args.trace)
    trip = Trip.synthetic(curve, route_id="cli")
    policy = make_policy(args.policy, args.cost)
    result = simulate_trip(
        trip, policy, dt=args.dt, record_series=args.series_csv is not None
    )
    m = result.metrics
    print(f"policy            : {m.policy} (C = {m.update_cost})", file=out)
    print(f"trip              : {curve.kind}, {m.duration:.1f} min, "
          f"{trip.total_distance:.2f} mi", file=out)
    print(f"updates sent      : {m.num_updates}", file=out)
    print(f"total cost        : {m.total_cost:.3f}", file=out)
    print(f"avg deviation     : {m.avg_deviation:.3f} mi", file=out)
    print(f"max deviation     : {m.max_deviation:.3f} mi", file=out)
    print(f"avg uncertainty   : {m.avg_uncertainty:.3f} mi", file=out)
    print(f"update times (min): "
          f"{[round(u.time, 2) for u in result.updates]}", file=out)
    if args.series_csv is not None:
        series = result.series
        rows = list(zip(series.times, series.deviations,
                        series.uncertainty_bounds))
        write_csv(
            args.series_csv,
            rows_to_csv(["time", "deviation", "uncertainty_bound"], rows),
        )
        print(f"series written to {args.series_csv}", file=out)
    return 0


def _shard_factory(shards: int | None, shard_plan: str | None):
    """A scenario ``database_factory`` whose one index is owned by shards.

    ``--shard-plan`` loads a saved partitioning verbatim; ``--shards``
    lays a uniform grid over the scenario network's extent.
    """
    if shards is not None and shard_plan is not None:
        raise ReproError("--shards and --shard-plan are mutually exclusive")
    from repro.dbms.database import MovingObjectDatabase
    from repro.geometry.bbox import Rect2D
    from repro.index.timespace import TimeSpaceIndex
    from repro.shard import load_plan, uniform_grid_for

    def factory(network):
        if shard_plan is not None:
            partitioning = load_plan(shard_plan)
        else:
            partitioning = uniform_grid_for(
                Rect2D(*network.bounding_extent()), shards
            )
        return MovingObjectDatabase(index=TimeSpaceIndex(),
                                    partitioning=partitioning)

    return factory


#: Scenario name -> (its builder in :mod:`repro.workloads`, the builder's
#: fleet-size parameter).  ``--name``'s choices.
_SCENARIOS = {
    "taxi": ("taxi_fleet_scenario", "num_taxis"),
    "trucking": ("trucking_scenario", "num_trucks"),
    "battlefield": ("battlefield_scenario", "num_units"),
}


def _build_scenario(name: str, size: int, duration: float, seed: int,
                    shards: int | None = None,
                    shard_plan: str | None = None):
    import repro.workloads

    try:
        builder, size_param = _SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}"
        ) from None
    kwargs = {"duration": duration, "seed": seed, size_param: size}
    if shards is not None or shard_plan is not None:
        kwargs["database_factory"] = _shard_factory(shards, shard_plan)
    return getattr(repro.workloads, builder)(**kwargs)


def _run_querying(scenario, polygons: list, duration: float,
                  ask) -> tuple[dict, int]:
    """Run the fleet, asking ``ask(polygon, t)`` about the polygons one
    at a time, spread evenly over the run's ticks, so the latency
    histograms sample a changing database.

    Returns the fleet's message counts and how many queries were asked.
    """
    num_ticks = max(int(duration / scenario.fleet.dt + 1e-9), 1)
    stride = max(num_ticks // len(polygons), 1)
    progress = {"tick": 0, "query": 0}

    def on_tick(t: float) -> None:
        progress["tick"] += 1
        if (progress["tick"] % stride == 0
                and progress["query"] < len(polygons)):
            ask(polygons[progress["query"]], t)
            progress["query"] += 1

    return scenario.fleet.run(on_tick=on_tick), progress["query"]


def _cmd_scenario(args: argparse.Namespace, out: TextIO) -> int:
    with _observing(args, out, root="scenario"):
        scenario = _build_scenario(
            args.name, args.size, args.duration, args.seed
        )
        counts = scenario.fleet.run()
        total = sum(counts.values())
        print(f"scenario      : {scenario.name}", file=out)
        print(f"objects       : {len(scenario.database)}", file=out)
        print(f"duration      : {args.duration} min", file=out)
        print(f"messages      : {total} "
              f"({total / len(counts):.2f} per object)", file=out)
        print(f"comm. cost    : "
              f"{scenario.database.communication_cost():.1f}", file=out)
        if args.snapshot is not None:
            from repro.dbms.persistence import save_database

            save_database(scenario.database, args.snapshot)
            print(f"snapshot written to {args.snapshot}", file=out)
    return 0


def _cmd_stats(args: argparse.Namespace, out: TextIO) -> int:
    """Run a fleet scenario under full observability and emit telemetry."""
    from repro.obs import jsonl_snapshot, prometheus_text
    from repro.workloads.query_workloads import polygon_query_workload

    _check_counts(args, "--shards")
    with _observing(args, out, root="stats", sinks=("registry", "tracer"),
                    mark="# ", meta={
                        "command": "stats", "scenario": args.name,
                        "size": args.size, "duration": args.duration,
                        "seed": args.seed,
                    }) as session:
        scenario = _build_scenario(
            args.name, args.size, args.duration, args.seed,
            shards=args.shards, shard_plan=args.shard_plan,
        )
        polygons = polygon_query_workload(
            scenario.network, random.Random(args.seed + 1), count=args.queries
        )
        engine = None
        if args.batch:
            # Batched serving mode: run the fleet, then answer the
            # whole query workload in one batch pass (shared R-tree
            # traversal + uncertainty cache) against the final
            # database state.
            from repro.dbms.batch import BatchQueryEngine, RangeQuery

            counts = scenario.fleet.run()
            engine = BatchQueryEngine(scenario.database)
            t_end = scenario.database.clock_time
            engine.run([RangeQuery(polygon, t_end) for polygon in polygons])
            queries_issued = len(polygons)
        else:
            counts, queries_issued = _run_querying(
                scenario, polygons, args.duration,
                scenario.database.range_query)

        if session.recorder is not None:
            from repro.trace import record_index_digest

            record_index_digest(scenario.database)

        total = sum(counts.values())
        print(f"# scenario {scenario.name}: {len(scenario.database)} "
              f"objects, {args.duration} min, {total} update messages, "
              f"{queries_issued} range queries"
              + (" (batched)" if args.batch else ""), file=out)
        if engine is not None:
            print(f"# batch engine: uncertainty-cache hit rate "
                  f"{engine.hit_rate():.3f} over {queries_issued} queries",
                  file=out)
        if args.format in ("prom", "both"):
            print(prometheus_text(session.registry), file=out, end="")
        if args.format in ("jsonl", "both"):
            print(jsonl_snapshot(session.registry), file=out, end="")
    return 0


def _cmd_lint(args: argparse.Namespace, out: TextIO) -> int:
    from repro.lint import (
        Config,
        all_rules,
        format_json,
        format_sarif,
        format_text,
        lint_paths,
        write_json,
        write_sarif,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<30} [{rule.severity:>7}] "
                  f"({rule.scope}) {rule.description}", file=out)
        return 0
    select = (frozenset(code.strip() for code in args.select.split(","))
              if args.select else None)
    report = lint_paths(args.paths, Config(select=select))
    if args.format == "json":
        format_json(report, out)
    elif args.format == "sarif":
        format_sarif(report, out)
    else:
        format_text(report, out)
    if args.output is not None:
        write_json(report, args.output)
    if args.sarif_out is not None:
        write_sarif(report, args.sarif_out)
    return 0 if report.ok else 1


def _cmd_trace_record(args: argparse.Namespace, out: TextIO) -> int:
    """Record a fleet scenario plus query workload as a JSONL trace."""
    from repro.dbms.batch import BatchQueryEngine
    from repro.geometry.point import Point
    from repro.trace import record_index_digest, write_trace
    from repro.workloads.query_workloads import mixed_query_workload

    _check_counts(args, "--shards")
    with _observing(args, out, root="trace", sinks=("recorder",), meta={
            "command": "trace record", "scenario": args.name,
            "size": args.size, "duration": args.duration, "seed": args.seed,
            "queries": args.queries, "batch": args.batch,
            "shards": args.shards}) as session:
        scenario = _build_scenario(
            args.name, args.size, args.duration, args.seed,
            shards=args.shards,
        )
        scenario.fleet.run()
        database = scenario.database
        t_end = database.clock_time
        object_ids = database.object_ids()
        queries = mixed_query_workload(
            scenario.network, random.Random(args.seed + 1),
            args.queries, object_ids, (t_end,),
        )
        if args.batch:
            BatchQueryEngine(database).run(queries)
        else:
            for query in queries:
                database.ask(query)
        # Cover the db-only query kinds too, then checkpoint the index.
        extent = scenario.network.bounding_extent()
        center = Point((extent[0] + extent[2]) / 2.0,
                       (extent[1] + extent[3]) / 2.0)
        database.nearest(center, 3, t_end)
        if object_ids:
            database.within_distance_of_object(object_ids[0], 1.0, t_end)
        record_index_digest(database)
    count = write_trace(session.recorder, args.out)
    print(f"{count} events written to {args.out}", file=out)
    return 0


def _cmd_trace_replay(args: argparse.Namespace, out: TextIO) -> int:
    """Re-drive a recorded trace and verify every answer digest."""
    from repro.trace import TraceReplayer

    report = TraceReplayer(
        mode=args.mode, shards=args.shards
    ).replay_file(args.trace)
    print(f"replayed {report.events_total} events: "
          f"{report.queries_checked} query digest(s), "
          f"{report.index_checks} index checkpoint(s), "
          f"{report.shard_checks} shard routing check(s)", file=out)
    if report.ok:
        print("replay OK: all digests byte-identical", file=out)
        return 0
    for mismatch in report.mismatches[:10]:
        print(f"seq {mismatch.seq} [{mismatch.kind}] {mismatch.detail}",
              file=out)
        print(f"  expected {mismatch.expected}", file=out)
        print(f"  actual   {mismatch.actual}", file=out)
    print(f"FAIL: {len(report.mismatches)} digest mismatch(es)",
          file=sys.stderr)
    return 1


def _cmd_trace_summary(args: argparse.Namespace, out: TextIO) -> int:
    from repro.trace import read_trace, render_summary, summarize

    meta, events = read_trace(args.trace)
    render_summary(summarize(meta, events), out)
    return 0


#: Flags several commands take, each declared once; a command names the
#: ones it takes (:func:`_add_shared`) and states only what differs.
_SHARED: dict[str, dict[str, Any]] = {
    "--name": {"default": "taxi", "choices": tuple(_SCENARIOS)},
    "--size": {"type": int, "default": 10, "help": "fleet size"},
    "--duration": {"type": float, "default": 15.0, "help": "sim minutes"},
    "--seed": {"type": int, "default": 7},
    "--queries": {"type": int, "default": 20,
                  "help": "size of the query workload"},
    "--batch": {"action": "store_true",
                "help": "answer the queries through the batch engine"},
    "--shards": {"type": int, "help": "lay the index out over this many "
                                      "spatial shards (answers invariant)"},
    "--shard-plan": {"help": "a saved partitioning plan (JSON) instead "
                             "of a uniform --shards grid"},
    "--profile": {"action": "store_true",
                  "help": "print a flame summary of the run's spans"},
    "--trace-out": {"help": "record the DBMS workload as a JSONL trace"},
}

_SCENARIO_FLAGS = ("--name", "--size", "--duration", "--seed")


def _add_shared(parser: argparse.ArgumentParser, *flags: str,
                **overrides: dict[str, Any]) -> None:
    """Declare the shared ``flags`` on ``parser``, in order; ``overrides``
    maps a flag's dest to what differs for this command."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **{**_SHARED[flag],
                                     **overrides.get(dest, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Moving-objects database (Wolfson et al., ICDE 1998).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run the reproduction report")
    report.add_argument("--fast", action="store_true")
    report.add_argument("--metrics-out", default=None,
                        help="write a JSONL metrics snapshot of the run")
    _add_shared(report, "--profile", "--trace-out", "--shards",
                shards={"default": 4})
    report.set_defaults(func=_cmd_report)

    simulate = sub.add_parser("simulate", help="simulate one trip")
    simulate.add_argument("--policy", default="ail",
                          choices=sorted(policy_names()))
    simulate.add_argument("--cost", type=float, default=5.0,
                          help="update cost C")
    simulate.add_argument("--curve", default="city",
                          choices=sorted(_CURVES))
    simulate.add_argument("--trace", default=None,
                          help="CSV speed trace (overrides --curve)")
    _add_shared(simulate, "--duration", "--seed",
                duration={"default": 60.0}, seed={"default": 42})
    simulate.add_argument("--dt", type=float, default=1.0 / 60.0)
    simulate.add_argument("--series-csv", default=None,
                          help="write per-tick series to this CSV path")
    simulate.set_defaults(func=_cmd_simulate)

    scenario = sub.add_parser("scenario", help="run a fleet scenario")
    _add_shared(scenario, *_SCENARIO_FLAGS)
    scenario.add_argument("--snapshot", default=None,
                          help="save the final database as JSON")
    _add_shared(scenario, "--profile")
    scenario.set_defaults(func=_cmd_scenario)

    stats = sub.add_parser(
        "stats", help="run a fleet scenario and emit a metrics snapshot"
    )
    _add_shared(stats, *_SCENARIO_FLAGS, "--queries", "--batch")
    stats.add_argument("--format", default="prom",
                       choices=("prom", "jsonl", "both"),
                       help="snapshot format(s) printed to stdout")
    stats.add_argument("--prom-out", default=None,
                       help="write the Prometheus-text snapshot to this path")
    stats.add_argument("--jsonl-out", default=None,
                       help="write the JSONL snapshot to this path")
    stats.add_argument("--spans-out", default=None,
                       help="write the span trace (JSONL) to this path")
    _add_shared(stats, "--trace-out", "--shards", "--shard-plan",
                "--profile")
    stats.set_defaults(func=_cmd_stats)

    lint = sub.add_parser(
        "lint", help="paper-invariant static analysis (repro.lint)"
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files/directories to lint (default: src tests)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"),
                      help="stdout rendering")
    lint.add_argument("--sarif-out", default=None,
                      help="also write the SARIF 2.1.0 log here (CI "
                           "code-scanning annotation)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--output", default=None,
                      help="also write the JSON report (repro-lint/1) here")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace", help="record/replay/summarize workload traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record", help="record a fleet scenario + query workload as "
                       "schema-versioned JSONL"
    )
    _add_shared(trace_record, *_SCENARIO_FLAGS, "--queries", "--batch",
                "--shards")
    trace_record.add_argument("--out", default="trace.jsonl",
                              help="trace output path")
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_replay = trace_sub.add_parser(
        "replay", help="re-drive a trace against a fresh database and "
                       "verify byte-identical answer digests"
    )
    trace_replay.add_argument("trace", help="JSONL trace path")
    _add_shared(trace_replay, "--shards")
    trace_replay.add_argument("--mode", default="auto",
                              choices=("auto", "sequential", "batch"),
                              help="query path: as recorded (auto), or "
                                   "forced sequential/batched")
    trace_replay.set_defaults(func=_cmd_trace_replay)

    trace_summary = trace_sub.add_parser(
        "summary", help="print aggregate event counts for a trace"
    )
    trace_summary.add_argument("trace", help="JSONL trace path")
    trace_summary.set_defaults(func=_cmd_trace_summary)

    return parser


def main(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "build_parser",
    "main",
]
