"""End-to-end tests for ``repro monitor serve|check|tail``.

The acceptance path: a served run exposes /metrics, /health, /snapshot;
an injected latency spike flips /health to 503; and ``monitor check``
reproduces the live SLO verdicts byte-identically from the collector
JSONL.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main

SLO_DOCUMENT = {
    "schema": "repro-slo/1",
    "slos": [
        {"name": "batch-latency", "kind": "latency_quantile",
         "series": "dbms_batch_seconds", "q": 0.95, "threshold": 0.25,
         "fast_burn": 2.0, "slow_burn": 1.0},
        {"name": "freshness", "kind": "staleness", "bound": 8.0,
         "max_stale_fraction": 0.9},
    ],
}


@pytest.fixture
def slo_path(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(SLO_DOCUMENT))
    return str(path)


def serve(tmp_path, slo_path, *extra):
    out = io.StringIO()
    collector = str(tmp_path / "collector.jsonl")
    code = main([
        "monitor", "serve", "--size", "5", "--duration", "10",
        "--queries", "5", "--seed", "3", "--interval", "2",
        "--collector-out", collector, "--slo", slo_path, *extra,
    ], out=out)
    return code, out.getvalue(), collector


def get(url):
    try:
        response = urllib.request.urlopen(url, timeout=10)
        return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestServe:
    def test_serve_writes_collector_and_verdict(self, tmp_path, slo_path):
        code, text, collector = serve(tmp_path, slo_path)
        assert code == 0
        assert "# serving http://127.0.0.1:" in text
        assert "# slo status: ok" in text
        verdict_lines = [ln for ln in text.splitlines()
                         if ln.startswith("{")]
        assert len(verdict_lines) == 1
        assert json.loads(verdict_lines[0])["schema"] == \
            "repro-slo-verdict/1"
        header = json.loads(open(collector).readline())
        assert header["schema"] == "repro-live-collector/1"

    def test_injected_spike_burns_the_budget(self, tmp_path, slo_path):
        code, text, _ = serve(tmp_path, slo_path, "--spike", "2:1.0")
        assert code == 0
        assert "# slo status: burning" in text

    def test_endpoints_live_during_hold(self, tmp_path, slo_path):
        out = io.StringIO()
        port_file = tmp_path / "port"

        def run():
            main([
                "monitor", "serve", "--size", "4", "--duration", "6",
                "--queries", "3", "--slo", slo_path,
                "--port-file", str(port_file), "--hold", "2",
            ], out=out)

        # The thread is joined before returning so its use_live /
        # use_registry scopes cannot leak into later tests.
        thread = threading.Thread(target=run)
        try:
            thread.start()
            # Wait for the server to come up, then scrape it live.
            for _ in range(400):
                if port_file.exists() and port_file.read_text().strip():
                    break
                thread.join(timeout=0.05)
            port = int(port_file.read_text())
            status = body = None
            for _ in range(100):
                try:
                    status, body = get(
                        f"http://127.0.0.1:{port}/metrics"
                    )
                    break
                except OSError:
                    thread.join(timeout=0.05)
            assert status == 200
            assert "repro_live_window_total" in body
            status, health = get(f"http://127.0.0.1:{port}/health")
            assert status == 200
            assert json.loads(health)["schema"] == "repro-slo-verdict/1"
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()


class TestCheck:
    def test_offline_verdicts_match_live_byte_for_byte(
            self, tmp_path, slo_path):
        code, text, collector = serve(tmp_path, slo_path)
        assert code == 0
        (live_line,) = [ln for ln in text.splitlines()
                        if ln.startswith("{")]
        out = io.StringIO()
        assert main(["monitor", "check", collector, "--slo", slo_path],
                    out=out) == 0
        offline_lines = out.getvalue().splitlines()
        # The final collector snapshot is the state /health served at
        # the end of the run: its offline verdict is byte-identical.
        assert offline_lines[-1] == live_line

    def test_strict_exit_on_burning(self, tmp_path, slo_path):
        _, _, collector = serve(tmp_path, slo_path, "--spike", "2:1.0")
        out = io.StringIO()
        assert main(["monitor", "check", collector, "--slo", slo_path,
                     "--strict"], out=out) == 1
        assert main(["monitor", "check", collector, "--slo", slo_path],
                    out=out) == 0


class TestTail:
    def test_tail_renders_each_snapshot(self, tmp_path, slo_path):
        _, _, collector = serve(tmp_path, slo_path)
        out = io.StringIO()
        assert main(["monitor", "tail", collector, "--slo", slo_path],
                    out=out) == 0
        text = out.getvalue()
        assert "snapshots" in text
        assert "batch p95" in text
        rows = [ln for ln in text.splitlines()
                if ln and not ln.startswith("#")
                and not ln.strip().startswith("now")]
        assert len(rows) >= 2

    def test_tail_without_slo_shows_dashes(self, tmp_path, slo_path):
        _, _, collector = serve(tmp_path, slo_path)
        out = io.StringIO()
        assert main(["monitor", "tail", collector], out=out) == 0
        assert " -" in out.getvalue()
