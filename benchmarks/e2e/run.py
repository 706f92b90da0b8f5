"""End-to-end benchmark: four workloads, whole-command wall clock, and
an outside-in per-layer ledger.  See README.md in this directory.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 1998

runs every workload (repetitions round-robin, each in a fresh child
process, nothing instrumented), then one traced repetition per
workload, prints every metric by name with its unit, verifies outputs,
writes all samples to ``results/`` and exits non-zero if a check fails.

``--workload W --seconds N --trace 0|1`` is the form ``BENCHMARK.json``
names: one workload, repetitions until N seconds have passed, and one
JSON object as the last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any

import probes
import workloads
from workloads import BENCH_DIR, REPO_ROOT, SRC_DIR, WORKLOADS

SCHEMA = "repro-bench-e2e/1"
RESULTS_DIR = BENCH_DIR / "results"
#: Untraced repetitions per workload in a full run.
REPETITIONS = 3
#: Every duration is reported as if the repetition ran on a host whose
#: calibration loop takes this long (see README, "Reference seconds").
REFERENCE_CALIB_S = 0.2
#: Per-layer `_s` metrics that are inclusive, not self, seconds.
INCLUSIVE = {"routes.random_route"}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    """One repetition of one workload; its JSON is the last stdout line."""
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR))
    try:
        log = probes.SpanLog() if args.traced else None
        rep = workloads.Repetition(args.seed, args.smoke, log, scratch,
                                   args.retarget_probe)
        rep.calibrate()
        if log is not None and args.child in ("policy_sweep", "serve_mixed"):
            # The command workloads install theirs in traced_cli.py.
            probes.install(log, probes.retargeted(args.retarget_probe))
        workloads.RUNNERS[args.child](rep)
        rep.calibrate()
        if log is not None and log.spans:
            rep.merge_spans(log.dump())
        if args.inject_failure:
            rep.check(False, "injected failure")
        print(json.dumps(rep.to_json()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def run_child(workload: str, args: argparse.Namespace,
              traced: bool = False) -> dict[str, Any]:
    """One repetition in a fresh process; peak RSS read from ``wait4``."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--child", workload,
            "--seed", str(args.seed)]
    argv += ["--smoke"] * args.smoke + ["--traced"] * traced
    argv += ["--inject-failure"] * args.inject_failure
    for target in args.retarget_probe:
        argv += ["--retarget-probe", target]
    done = workloads.spawn(argv)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: repetition exited {done.returncode}\n{done.stdout}")
    rep = json.loads(done.stdout.splitlines()[-1])
    if rep["rss_mb"] is None:
        rep["rss_mb"] = done.rss_mb
    to_reference_seconds(rep)
    return rep


def to_reference_seconds(rep: dict[str, Any]) -> None:
    """Scale every duration of ``rep`` by its host-speed factor.

    This host's speed wanders by tens of percent over minutes; the
    median of the calibration loops a repetition runs between its
    sections follows that, so measured seconds x ``host_factor`` are
    comparable across time.  Measured = reported / ``host_factor``.
    """
    factor = REFERENCE_CALIB_S / statistics.median(rep["calib_s"])
    rep["host_factor"] = factor
    rep["timings"] = {
        key: ([s * factor for s in value] if isinstance(value, list)
              else value * factor)
        for key, value in rep["timings"].items()}
    rep["latencies_ms"] = [ms * factor for ms in rep["latencies_ms"]]
    for rows in rep["spans"].values():
        for row in rows.values():
            row["self_s"] *= factor
            row["total_s"] *= factor


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def quartiles(samples: list[float]) -> dict[str, Any]:
    row: dict[str, Any] = {"n": len(samples),
                           "median": statistics.median(samples)}
    if len(samples) > 1:
        row["q1"], _, row["q3"] = statistics.quantiles(samples, n=4)
    return row


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def setup_samples(rep: dict[str, Any]) -> list[float]:
    setup = rep["timings"].get("setup_s", [])
    return setup if isinstance(setup, list) else [setup]


def end_to_end(workload: str, reps: list[dict[str, Any]]) -> dict[str, Any]:
    """Samples per end-to-end metric: one per repetition unless pooled."""
    def per_rep(key: str) -> list[float]:
        return [rep["timings"][key] for rep in reps]

    samples: dict[str, list[float]] = {
        "wall_s": per_rep("wall_s"),
        "setup_s": [s for rep in reps for s in setup_samples(rep)],
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
        "timed_s": [sum(rep["timings"][key]
                        for key in workloads.TIMED_KEYS[workload])
                    for rep in reps],
    }
    if workload == "policy_sweep":
        samples["warm_cells_per_s"] = [
            rep["info"]["cells"] / rep["timings"]["warm_s"] for rep in reps]
    elif workload == "serve_mixed":
        samples["updates_per_s"] = [
            rep["info"]["updates"] / rep["timings"]["update_s"]
            for rep in reps]
        samples["batch_queries_per_s"] = [
            rep["info"]["batch_queries"] / rep["timings"]["batch_s"]
            for rep in reps]
    elif workload == "trace_replay":
        samples["sharded_wall_s"] = per_rep("sharded_wall_s")
    values = {name: statistics.median(s) for name, s in samples.items()}
    if workload == "serve_mixed":
        pooled = [ms for rep in reps for ms in rep["latencies_ms"]]
        values["seq_query_p50_ms"] = statistics.median(pooled)
        values["seq_query_p95_ms"] = percentile(pooled, 0.95)
    return {"values": values, "samples": samples}


def span_totals(traced: dict[str, Any]) -> dict[str, dict[str, float]]:
    """The traced repetition's span rows summed over its sections."""
    totals: dict[str, dict[str, float]] = {}
    for rows in traced["spans"].values():
        for name, row in rows.items():
            total = totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in total:
                total[key] += row[key]
    return totals


def per_layer(workload: str, names: list[str], reps: list[dict[str, Any]],
              traced: dict[str, Any],
              measured: dict[str, float]) -> dict[str, float | None]:
    """Every per-layer metric; ``None`` where it has no meaning here.

    A metric reads ``None`` when its probes' targets are all missing,
    or when it is defined on another workload only; a probe that was
    installed and never called reads 0.  ``measured`` holds the
    untraced end-to-end values, some of which ride in this list.
    """
    spans = span_totals(traced)
    installed = set(traced["installed"])

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    comparable = [key for key in ("setup_s", *workloads.TIMED_KEYS[workload])
                  if not isinstance(traced["timings"].get(key, []), list)]
    traced_wall = sum(traced["timings"][key] for key in comparable)
    untraced_wall = sum(
        statistics.median(s for rep in reps for s in (
            setup_samples(rep) if key == "setup_s" else [rep["timings"][key]]))
        for key in comparable)
    values: dict[str, float | None] = {
        **{name: measured[name] for name in names if name in measured},
        **traced["layer"],
        "routes.attempts_per_route": (
            calls("routes.shortest_route") / calls("routes.random_route")
            if calls("routes.random_route") else None),
        "dbms.batch.queries": (
            traced["observed"].get("dbms.batch.run", 0)
            if "dbms.batch.run" in installed else None),
        "shard.fanout_mean": (
            traced["observed"]["shard.fanout"] / calls("shard.fanout")
            if calls("shard.fanout") else None),
        "probe.unattributed_s": spans[probes.ROOT_SPAN]["self_s"],
        "probe.overhead_frac": traced_wall / untraced_wall - 1.0,
        "probe.missing": len(traced["missing"]),
        "host.calib_s": statistics.median(
            statistics.median(rep["calib_s"]) for rep in reps + [traced]),
    }
    for name in names:
        if name in values:
            continue
        prefix, _, suffix = name.rpartition("_")
        inclusive = prefix in INCLUSIVE or prefix.startswith("experiments.")
        if prefix not in spans and prefix not in installed:
            values[name] = None
        elif suffix == "calls":
            values[name] = calls(prefix)
        elif suffix == "s":
            values[name] = spans.get(prefix, {}).get(
                "total_s" if inclusive else "self_s", 0.0)
        else:
            values[name] = None
    return {name: values[name] for name in names}


def summarise(workload: str, reps: list[dict[str, Any]],
              traced: dict[str, Any] | None,
              benchmark: dict[str, Any]) -> dict[str, Any]:
    """Metrics, cross-repetition checks and raw samples of one workload."""
    every = reps + ([traced] if traced else [])
    attempted = sum(rep["attempted"] for rep in every)
    failures = [f for rep in every for f in rep["failures"]]
    # Outputs and exact counts must repeat for a fixed seed, probed or not.
    for field in ("same", "layer"):
        for key in every[0][field]:
            attempted += 1
            seen = {json.dumps(rep[field].get(key)) for rep in every}
            if len(seen) > 1:
                failures.append(f"{key} differs across repetitions: {seen}")
    summary = end_to_end(workload, reps)
    summary["values"]["fail_frac"] = len(failures) / attempted
    summary.update(
        repetitions=reps, attempted=attempted, failures=failures,
        quartiles={name: quartiles(s)
                   for name, s in summary["samples"].items()})
    if traced:
        names = [m["name"] for m in benchmark["per_layer"]]
        summary.update(
            per_layer=per_layer(workload, names, reps, traced,
                                summary["values"]),
            traced=traced, probes_missing=traced["missing"])
    return summary


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

def time_boxed(workload: str, args: argparse.Namespace,
               start: float) -> list[dict[str, Any]]:
    """Repeat until the next repetition would overrun ``--seconds``."""
    reps = []
    while True:
        rep_start = perf_counter()
        reps.append(run_child(workload, args))
        now = perf_counter()
        if now - start + (now - rep_start) > args.seconds:
            return reps


def collect(selected: list[str], args: argparse.Namespace, sets: int,
            ) -> tuple[list[dict[str, list[dict[str, Any]]]], dict[str, Any]]:
    """``(untraced repetitions per set, traced repetition)`` per workload.

    Host speed drifts on a tens-of-seconds scale, so repetitions go
    round-robin over workloads (and sets): each workload samples the
    whole run window instead of one block of it.  The traced pass
    comes last.  ``--smoke`` checks plumbing, not speed, and runs its
    children two at a time to stay short.
    """
    jobs = [(which, workload, False)
            for _ in range(1 if args.smoke else REPETITIONS)
            for which in range(sets) for workload in selected]
    if args.trace:
        jobs += [(0, workload, True) for workload in selected]

    def run(job: tuple[int, str, bool]) -> dict[str, Any]:
        return run_child(job[1], args, traced=job[2])

    if args.smoke:
        with ThreadPoolExecutor(max_workers=2) as pool:
            done = list(pool.map(run, jobs))
    else:
        done = [run(job) for job in jobs]
    untraced: list[dict[str, list[dict[str, Any]]]] = [
        {workload: [] for workload in selected} for _ in range(sets)]
    traced = {}
    for (which, workload, is_traced), rep in zip(jobs, done):
        if is_traced:
            traced[workload] = rep
        else:
            untraced[which][workload].append(rep)
    return untraced, traced


def report(summaries: dict[str, dict[str, Any]], units: dict[str, str],
           seed: int) -> None:
    for workload, summary in summaries.items():
        print(f"== {workload}: {len(summary['repetitions'])} repetition(s), "
              f"seed {seed}")
        rows = {**summary["values"], **{
            name: value for name, value in summary.get("per_layer", {}).items()
            if name not in summary["values"]}}
        for name, value in rows.items():
            shown = "-" if value is None else f"{value:.6g}"
            spread = summary["quartiles"].get(name, {})
            note = (f"  (n={spread['n']}, q1 {spread['q1']:.4g}, "
                    f"q3 {spread['q3']:.4g})" if "q1" in spread else "")
            print(f"  {name:42s} {shown:>12s} {units.get(name, ''):8s}{note}")
        for target in summary.get("probes_missing", []):
            print(f"  probe target missing: {target}")
        for failure in summary["failures"][:10]:
            print(f"  FAILED: {failure}")


def repeat_check(first: dict[str, dict[str, Any]],
                 second: dict[str, dict[str, Any]],
                 benchmark: dict[str, Any]) -> dict[str, Any]:
    """Do two sets of runs of the same code agree within the bounds?

    Bounded are the end-to-end metrics of BENCHMARK.json; the
    one-workload metrics are compared too, for the record.
    """
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    def exact(summary: dict[str, Any]) -> dict[str, Any]:
        rep = summary["repetitions"][0]
        return {**rep["same"], **rep["layer"]}

    rows, disagreements = [], []
    for workload in first:
        a, b = first[workload]["values"], second[workload]["values"]
        for name in a:
            if name == "fail_frac":
                continue
            change = abs(b[name] - a[name]) / a[name]
            rows.append({"workload": workload, "metric": name, "a": a[name],
                         "b": b[name], "change": change,
                         "bound": bounds.get(name)})
            if change > bounds.get(name, float("inf")):
                disagreements.append(
                    f"{workload}.{name}: {a[name]:.6g} vs {b[name]:.6g} "
                    f"differ by more than {bounds[name]}")
        if exact(first[workload]) != exact(second[workload]):
            disagreements.append(f"{workload}: exact values differ")
    return {"rows": rows, "disagreements": disagreements}


def contract_line(summary: dict[str, Any], benchmark: dict[str, Any],
                  trace: bool) -> str:
    """The one JSON object BENCHMARK.json's reader takes from a run."""
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    source = summary["per_layer"] if trace else summary["values"]
    return json.dumps({
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": len(summary["failures"]),
        # A metric with no meaning on this workload reads 0 here (and
        # `-` above): the reader wants a number under every name.
        "metrics": {m["name"]: {"value": source[m["name"]] or 0.0,
                                "unit": m["unit"]} for m in wanted},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float,
                        help="repeat one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add the traced repetition (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10, one repetition")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced set twice, compare medians")
    parser.add_argument("--out", type=Path,
                        default=RESULTS_DIR / "latest.json")
    # Test hooks.
    parser.add_argument("--retarget-probe", action="append", default=[],
                        metavar="NAME=MODULE:QUALNAME")
    parser.add_argument("--inject-failure", action="store_true")
    # Child-process entry points.
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"error: {SRC_DIR / 'repro'} is not there: the benchmark "
              "runs the program from its source tree", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    if args.child:
        return child(args)

    selected = args.workload or list(WORKLOADS)
    if args.seconds is not None and (len(selected) != 1 or args.repeat_check):
        parser.error("--seconds takes exactly one --workload, one set")
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    started = perf_counter()

    if args.seconds is None:
        sets, traced = collect(selected, args, 2 if args.repeat_check else 1)
    else:
        (workload,) = selected
        traced = ({workload: run_child(workload, args, traced=True)}
                  if args.trace else {})
        sets = [{workload: time_boxed(workload, args, started)}]
    summaries = {w: summarise(w, sets[0][w], traced.get(w), benchmark)
                 for w in selected}
    report(summaries, units, args.seed)
    failed = any(s["failures"] for s in summaries.values())

    if args.repeat_check:
        second = {w: summarise(w, sets[1][w], None, benchmark)
                  for w in selected}
        verdict = repeat_check(summaries, second, benchmark)
        (RESULTS_DIR / "repeat.json").write_text(
            json.dumps({"schema": SCHEMA, "seed": args.seed, **verdict,
                        "second_set": second}, indent=1) + "\n")
        for line in verdict["disagreements"]:
            print(f"REPEAT-CHECK: {line}")
        failed = failed or bool(verdict["disagreements"]) or any(
            s["failures"] for s in second.values())

    if args.seconds is None:
        sys.path.insert(0, str(SRC_DIR))
        from repro.bench import environment_fingerprint

        args.out.write_text(json.dumps({
            "schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
            "host": environment_fingerprint(), "nproc": os.cpu_count(),
            "elapsed_s": perf_counter() - started,
            "workloads": summaries,
        }, indent=1) + "\n")
        print(f"samples written to {args.out}")
    else:
        print(contract_line(summaries[selected[0]], benchmark,
                            bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
