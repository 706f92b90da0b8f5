"""Smoke test of the end-to-end benchmark's plumbing.

Outside the tier-1 ``testpaths`` (each ``--smoke`` run takes ~25 s)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Sizes are a tenth of the real ones, so no timing is asserted on; what
is: every named metric is reported with its unit, the checks pass on
two seeds, a vanished probe target is a ``null`` and not an error, a
failed check fails the command, and self times partition the traced
wall clock.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads(
    (BENCH_DIR.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: The end-to-end metrics that exist on one workload only.
ONE_WORKLOAD = {
    "policy_sweep": ["warm_cells_per_s"],
    "serve_mixed": ["updates_per_s", "batch_queries_per_s",
                    "seq_query_p50_ms", "seq_query_p95_ms"],
    "trace_replay": ["sharded_wall_s"],
}


def run(*flags: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )


def ledger(path: Path) -> dict:
    return json.loads(path.read_text())["workloads"]


@pytest.mark.parametrize("seed", [1998, 7])
def test_every_metric_is_reported_and_checks_pass(seed, tmp_path):
    out = tmp_path / "ledger.json"
    done = run("--seed", str(seed), "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(out.read_text())["schema"] == "repro-bench-e2e/1"
    workloads = ledger(out)
    assert list(workloads) == WORKLOADS

    blocks = dict(zip(WORKLOADS, re.split(r"^== .*$", done.stdout,
                                          flags=re.MULTILINE)[1:]))
    for workload, summary in workloads.items():
        assert summary["failures"] == []
        assert summary["values"]["fail_frac"] == 0
        assert summary["probes_missing"] == []
        for metric in BENCHMARK["end_to_end"]:
            assert summary["values"][metric["name"]] > 0
        for name in ONE_WORKLOAD.get(workload, []):
            assert summary["values"][name] > 0
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            line = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                    rf"{re.escape(metric['unit'])}\b")
            assert re.search(line, blocks[workload], re.MULTILINE), (
                workload, metric["name"])

        # Self times (the root's is `probe.unattributed`) partition
        # each traced section, and the sections make up the traced wall.
        traced = summary["traced"]
        roots = 0.0
        for rows in traced["spans"].values():
            root = rows["probe.unattributed"]["total_s"]
            assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
                root, rel=1e-9)
            roots += root
        layer = summary["per_layer"]
        attributed = sum(
            row["self_s"] for rows in traced["spans"].values()
            for name, row in rows.items() if name != "probe.unattributed")
        assert attributed + layer["probe.unattributed_s"] == pytest.approx(
            roots, rel=1e-9)
        if workload in ("policy_sweep", "serve_mixed"):
            # In-process sections: the section timer and the root span
            # bracket the same block.
            timed = sum(traced["timings"][key] for key in (
                "setup_s", "wall_s", "warm_s") if key in traced["timings"])
            assert roots == pytest.approx(timed, rel=0.02)

    # The separation the workloads were chosen for.
    layers = {w: s["per_layer"] for w, s in workloads.items()}
    assert layers["report_fast"]["vec.engine.simulate_calls"] == 0
    assert layers["report_fast"]["dbms.batch.queries"] == 0
    assert layers["policy_sweep"]["vec.engine.simulate_calls"] > 0
    for name in ("routes.random_route_calls", "dbms.database.insert_calls",
                 "dbms.database.query_calls", "index.rtree.insert_calls"):
        assert layers["policy_sweep"][name] == 0
    for workload in WORKLOADS:
        sharded = workload == "trace_replay"
        assert (layers[workload]["shard.update_s"] > 0) == sharded
        assert (layers[workload]["shard.query_s"] > 0) == sharded


def test_a_vanished_probe_target_is_null_not_an_error(tmp_path):
    out = tmp_path / "ledger.json"
    done = run("--workload", "policy_sweep", "--out", str(out),
               "--retarget-probe", "vec.engine.simulate=repro.vec.engine:gone")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = ledger(out)["policy_sweep"]
    assert summary["probes_missing"] == ["repro.vec.engine:gone"]
    assert summary["per_layer"]["vec.engine.simulate_s"] is None
    assert summary["per_layer"]["vec.engine.simulate_calls"] is None
    assert summary["per_layer"]["probe.missing"] == 1
    assert summary["per_layer"]["exec.executor.run_s"] > 0


def test_a_failed_check_fails_the_command(tmp_path):
    out = tmp_path / "ledger.json"
    done = run("--workload", "policy_sweep", "--trace", "0",
               "--inject-failure", "--out", str(out))
    assert done.returncode != 0
    summary = ledger(out)["policy_sweep"]
    assert summary["values"]["fail_frac"] > 0
    assert "injected failure" in summary["failures"]


@pytest.mark.parametrize("trace", [0, 1])
def test_the_time_boxed_form_ends_with_one_json_object(trace):
    done = run("--workload", "serve_mixed", "--seconds", "1",
               "--trace", str(trace), "--seed", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert trace or reported["value"] > 0
