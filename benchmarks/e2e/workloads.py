"""The four workloads, as one repetition runs them in its own process.

Closed loop, one client, one process, ``jobs=1``.  Sizes are fixed
constants (``--smoke`` divides them by ten); the seed feeds every
generator here and every CLI ``--seed`` flag.  ``report --fast`` has
no seed flag: its seeds are baked into ``repro.experiments``.

The two command workloads run the program as a user would, as child
processes; the two in-process workloads import only package-level
names, which is the surface later refactors must keep or alias.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, NamedTuple

from probes import ROOT_SPAN, SpanLog

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

WORKLOADS = ("report_fast", "policy_sweep", "serve_mixed", "trace_replay")

#: Timing keys that make up ``timed_s`` (everything timed except set-up).
TIMED_KEYS = {
    "report_fast": ("wall_s",),
    "policy_sweep": ("wall_s", "warm_s"),
    "serve_mixed": ("wall_s",),
    "trace_replay": ("wall_s", "sharded_wall_s"),
}

IMPORT_SAMPLES = 5
SWEEP_CURVES = 160
SERVE_GRID = 20
SERVE_OBJECTS = 500
SERVE_ROUNDS = 4
SERVE_UPDATES = 60
SERVE_BATCH = 1000
SERVE_SEQUENTIAL = 200
SERVE_QUERY_TIMES = (10.0, 12.5, 15.0)
TRACE_FLEET = 60
TRACE_QUERIES = 300
TRACE_SHARDS = 4
TRACE_REPLAYS = 3
CALIBRATION_ITERATIONS = 6_000_000
CALIBRATION_BURST = 5

def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host drift."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i
    return perf_counter() - start


class Command(NamedTuple):
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str


def spawn(argv: list[str]) -> Command:
    """Run ``argv`` to completion; wall clock and peak RSS from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    start = perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                               text=True)
    assert process.stdout is not None
    stdout = process.stdout.read()
    process.stdout.close()
    _, status, usage = os.wait4(process.pid, 0)
    wall = perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return Command(wall, usage.ru_maxrss / 1024.0, process.returncode, stdout)


class Repetition:
    """What one repetition measured and checked."""

    def __init__(self, seed: int, smoke: bool, log: SpanLog | None,
                 scratch: Path, retarget: list[str]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.log = log
        self.scratch = scratch
        self.retarget = retarget
        self.attempted = 0
        self.failures: list[str] = []
        #: Calibration-loop times sampled through the repetition.
        self.calib_s: list[float] = []
        #: Seconds per timing key; a list where a repetition samples the
        #: same thing several times.
        self.timings: dict[str, Any] = {}
        self.latencies_ms: list[float] = []
        self.rss_mb: float | None = None
        #: Values that must be equal across repetitions of one seed.
        self.same: dict[str, Any] = {}
        #: Per-layer values only the driver can read (shapes, hit rates).
        self.layer: dict[str, float] = {}
        self.info: dict[str, Any] = {}
        #: Traced repetitions: ``section -> span name -> row``.
        self.spans: dict[str, dict[str, dict[str, float]]] = {}
        self.observed: dict[str, float] = {}
        self.installed: list[str] = []
        self.missing: list[str] = []

    def calibrate(self) -> None:
        """Sample the host's speed here: between sections, never inside."""
        burst = 1 if self.smoke else CALIBRATION_BURST
        self.calib_s.extend(calibrate() for _ in range(burst))

    def size(self, full: int) -> int:
        return max(1, full // 10) if self.smoke else full

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def section(self, key: str, label: str) -> Iterator[None]:
        """Time a block into ``timings[key]``; traced, it is a root span."""
        start = perf_counter()
        try:
            if self.log is None:
                yield
            else:
                self.log.section = label
                with self.log.span(ROOT_SPAN):
                    yield
        finally:
            elapsed = perf_counter() - start
            self.timings[key] = self.timings.get(key, 0.0) + elapsed

    def command(self, argv: list[str], label: str) -> Command:
        """``python -m repro argv`` as a child; traced, under probes."""
        if self.log is None:
            result = spawn([sys.executable, "-m", "repro", *argv])
        else:
            spans_path = self.scratch / f"spans-{label}.json"
            result = spawn([
                sys.executable, str(BENCH_DIR / "traced_cli.py"),
                str(spans_path), label, json.dumps(self.retarget), *argv,
            ])
            if spans_path.exists():
                self.merge_spans(json.loads(spans_path.read_text()))
        self.check(result.returncode == 0,
                   f"`repro {' '.join(argv)}` exited {result.returncode}")
        return result

    def merge_spans(self, dump: dict[str, Any]) -> None:
        for section, rows in dump["spans"].items():
            self.spans.setdefault(section, {}).update(rows)
        for name, value in dump["observed"].items():
            self.observed[name] = self.observed.get(name, 0.0) + value
        self.installed = sorted(set(self.installed) | set(dump["installed"]))
        self.missing = sorted(set(self.missing) | set(dump["missing"]))

    def to_json(self) -> dict[str, Any]:
        return {
            key: value for key, value in vars(self).items()
            if key not in ("log", "scratch", "retarget")
        }


# ----------------------------------------------------------------------
# report_fast
# ----------------------------------------------------------------------

def mask_e7_timing(report: str) -> str:
    """Drop the last column of the ``[E7]`` table's data rows.

    That column (``index ms/query``) is a wall-clock reading, the one
    part of ``report --fast`` that differs from run to run.
    """
    lines = report.splitlines()
    try:
        start = lines.index("[E7]")
    except ValueError:
        return report
    in_rows = False
    for i in range(start + 1, len(lines)):
        if not lines[i].strip():
            break
        if in_rows:
            lines[i] = lines[i].rsplit(None, 1)[0]
        elif set(lines[i]) == {"-"}:
            in_rows = True
    return "\n".join(lines)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_fast(rep: Repetition) -> None:
    if rep.log is None:
        # Traced, import is the `import.repro` span inside the command.
        rep.timings["setup_s"] = [
            spawn([sys.executable, "-c", "import repro"]).wall_s
            for _ in range(IMPORT_SAMPLES)
        ]
        rep.calibrate()
    report = rep.command(["report", "--fast"], "report")
    rep.timings["wall_s"] = report.wall_s
    rep.rss_mb = report.rss_mb
    absent = [f"[E{i}]" for i in range(1, 21)
              if f"[E{i}]\n" not in report.stdout]
    rep.check(not absent, f"report lacks {absent}")
    rep.same["report_masked_sha256"] = _sha256(mask_e7_timing(report.stdout))
    rep.info["report_raw_sha256"] = _sha256(report.stdout)


# ----------------------------------------------------------------------
# policy_sweep
# ----------------------------------------------------------------------

def policy_sweep(rep: Repetition) -> None:
    from repro import Trip
    from repro.exec import SweepExecutor
    from repro.experiments.sweep import SweepSpec, build_curves

    # 32 trips is the fewest the executor still hands to the vec kernel.
    spec = SweepSpec(num_curves=max(32, rep.size(SWEEP_CURVES)),
                     seed=rep.seed)
    with rep.section("setup_s", "setup"):
        curves = build_curves(spec)
        trips = [Trip.synthetic(curve, route_id=f"sweep-{i}")
                 for i, curve in enumerate(curves)]
    executor = SweepExecutor(jobs=1)
    rep.calibrate()
    with rep.section("wall_s", "cold"):
        cold = executor.run(spec, trips=trips)
    rep.calibrate()
    with rep.section("warm_s", "warm"):
        warm = executor.run(spec, trips=trips)

    rep.check(cold.cells == warm.cells, "cold and warm sweeps differ")
    for policy in spec.policy_names:
        updates = [count for _, count in
                   cold.metric_series(policy, "num_updates")]
        rep.check(updates == sorted(updates, reverse=True),
                  f"{policy}: num_updates rises with update cost")
    rep.same["sweep_cells_sha256"] = _sha256(repr(cold.cells))
    rep.info["cells"] = (len(spec.policy_names) * len(spec.update_costs)
                         * spec.num_curves)
    rep.layer["exec.cache.hit_rate"] = executor.cache.hit_rate


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def serve_mixed(rep: Repetition) -> None:
    from repro import (
        BatchQueryEngine,
        MovingObjectDatabase,
        PositionQuery,
        PositionUpdateMessage,
        RangeQuery,
        TimeSpaceIndex,
        grid_city_network,
        make_policy,
    )
    from repro.trace import answer_digest
    from repro.workloads import mixed_query_workload

    rng = random.Random(rep.seed)
    with rep.section("setup_s", "setup"):
        network = grid_city_network(SERVE_GRID, SERVE_GRID, 0.25)
        index = TimeSpaceIndex(slab_minutes=5.0)
        database = MovingObjectDatabase(index=index, horizon=120.0)
        database.schema.define_mobile_point_class("taxi")
        object_ids = []
        for i in range(rep.size(SERVE_OBJECTS)):
            route = network.random_route(rng, min_length=1.0)
            database.register_route(route)
            direction = rng.randrange(2)
            speed = rng.uniform(0.2, 0.6)
            object_ids.append(f"taxi-{i:04d}")
            database.insert_moving_object(
                object_ids[-1], "taxi", route.route_id, 0.0,
                route.travel_point(0.0, direction), direction, speed,
                make_policy("ail", 5.0), max_speed=speed * 1.6,
            )
        engine = BatchQueryEngine(database)

    def one_at_a_time(query: Any) -> Any:
        if isinstance(query, PositionQuery):
            return database.position_of(query.object_id, query.time)
        if isinstance(query, RangeQuery):
            return database.range_query(query.polygon, query.time)
        return database.within_distance(query.center, query.radius,
                                        query.time)

    def failed(count: int, what: str) -> None:
        rep.failures.extend([what] * count)

    rollup = hashlib.sha256()
    range_answers = []
    hit_rates = []
    updates = queries_run = 0
    for round_number in range(SERVE_ROUNDS):
        if round_number % 2 == 0:
            rep.calibrate()
        update_time = 5.0 + round_number / 2.0
        movers = rng.sample(object_ids, rep.size(SERVE_UPDATES))
        messages = []
        for object_id in movers:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, update_time)
            messages.append(PositionUpdateMessage(
                object_id, update_time, position.x, position.y,
                speed=rng.uniform(0.2, 0.6),
            ))
        queries = mixed_query_workload(
            network, rng, rep.size(SERVE_BATCH), object_ids,
            SERVE_QUERY_TIMES, side_miles=(0.3, 0.9),
            radius_miles=(0.2, 0.5),
        )
        sequential = queries[:rep.size(SERVE_SEQUENTIAL)]

        with rep.section("update_s", "rounds"):
            for message in messages:
                try:
                    database.process_update(message)
                except Exception as exc:
                    failed(1, f"update raised {exc!r}")
        updates += len(messages)

        answers: list[Any] = []
        with rep.section("batch_s", "rounds"):
            try:
                answers = engine.run(queries)
            except Exception as exc:
                failed(len(queries), f"batch raised {exc!r}")
        queries_run += len(queries)
        hit_rates.append(engine.hit_rate())

        singles: list[Any] = []
        with rep.section("seq_s", "rounds"):
            for query in sequential:
                start = perf_counter()
                try:
                    singles.append(one_at_a_time(query))
                except Exception as exc:
                    singles.append(None)
                    failed(1, f"query raised {exc!r}")
                rep.latencies_ms.append((perf_counter() - start) * 1e3)

        rep.attempted += len(messages) + len(queries) + len(sequential)
        rep.check(answers[:len(singles)] == singles,
                  f"round {round_number}: batch and single answers differ")
        for answer in answers:
            rollup.update(answer_digest(answer).encode())
            if hasattr(answer, "may"):
                range_answers.append(answer)
    rep.check(all(a.must <= a.may for a in range_answers),
              "a must-set is not inside its may-set")

    rep.timings["wall_s"] = sum(
        rep.timings[key] for key in ("update_s", "batch_s", "seq_s"))
    rep.same["answers_sha256"] = rollup.hexdigest()
    rep.info.update(updates=updates, batch_queries=queries_run)
    may_total = sum(len(a.may) for a in range_answers)
    rep.layer.update({
        "dbms.batch.cache_hit_rate": hit_rates[-1],
        "dbms.batch.examined_per_may": (
            sum(a.examined for a in range_answers) / may_total
            if may_total else 0.0),
        "index.timespace.candidates_per_query": (
            sum(len(a.candidates) for a in range_answers)
            / len(range_answers) if range_answers else 0.0),
        "index.timespace.boxes": index.total_boxes(),
        "index.rtree.height": index.tree.height,
        "index.rtree.node_count": index.tree.node_count(),
    })
    rep.info["cache_hit_rates"] = hit_rates


# ----------------------------------------------------------------------
# trace_replay
# ----------------------------------------------------------------------

def trace_replay(rep: Repetition) -> None:
    trace = str(rep.scratch / "taxi.jsonl")
    record = rep.command([
        "trace", "record", "--name", "taxi",
        "--size", str(rep.size(TRACE_FLEET)), "--duration", "30",
        "--queries", str(rep.size(TRACE_QUERIES)),
        "--seed", str(rep.seed), "--out", trace,
    ], "record")
    rep.timings["setup_s"] = record.wall_s
    rep.calibrate()
    # A 3 s process is at the mercy of one noisy second on a shared
    # host, so each replay runs several times and the median counts.
    # Traced, once is enough: the span table wants each call once.
    times = 1 if rep.log is not None or rep.smoke else TRACE_REPLAYS
    for key, label, flags in (
        ("wall_s", "replay", []),
        ("sharded_wall_s", "sharded", ["--shards", str(TRACE_SHARDS)]),
    ):
        if key == "sharded_wall_s":
            rep.calibrate()
        runs = [rep.command(["trace", "replay", trace, *flags], label)
                for _ in range(times)]
        rep.timings[key] = statistics.median(run.wall_s for run in runs)
        rep.timings[f"{key}_samples"] = [run.wall_s for run in runs]
        rep.check(all("replay OK" in run.stdout for run in runs),
                  f"{label} did not verify")
        if key == "wall_s":
            rep.rss_mb = statistics.median(run.rss_mb for run in runs)
            events = re.search(r"replayed (\d+) events", runs[0].stdout)
            rep.same["trace_events"] = int(events.group(1)) if events else None
    rep.layer["trace.events"] = rep.same["trace_events"] or 0


RUNNERS = {
    "report_fast": report_fast,
    "policy_sweep": policy_sweep,
    "serve_mixed": serve_mixed,
    "trace_replay": trace_replay,
}
